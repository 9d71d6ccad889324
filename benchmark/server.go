package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpsync/internal/cluster"
	"dpsync/internal/gateway"
	"dpsync/internal/telemetry"
)

// serverOpts is one server's configuration: dpsync-server's defaults apart
// from what a workload names.
type serverOpts struct {
	Key []byte
	// StoreDir, when set, makes the server durable (-store). It does not
	// pass -fsync: the store has to be inside the checkout, on the sandbox's
	// shared disk, whose fsync latency moved sync p50 between 2.3 and 5.5 ms
	// across identical repetitions. Commits are flushed to the operating
	// system, which is what a SIGKILL tests; the ladder times the fsync on
	// its own.
	StoreDir string
	// Tiered adds -history-window 16 and -sync-epsilon 0.001.
	Tiered bool
	// LeaseFile makes the server a -cluster primary; ReplicaOf makes it a
	// pinned follower of that address. Both need StoreDir.
	LeaseFile string
	ReplicaOf string
}

const (
	historyWindow = 16
	syncEpsilon   = 0.001
)

// server is a running dpsync-server, as a child process or (for the tests)
// inside this one.
type server interface {
	Addr() string
	// Varz is the server's /varz: counters and gauges as numbers,
	// histograms as {count, sum, bounds, buckets}.
	Varz() (map[string]any, error)
	// CPU is the user+system time the server has used; PeakRSSMB its
	// high-water resident set. Both are 0 for an in-process server.
	CPU() time.Duration
	PeakRSSMB() float64
	// Kill is SIGKILL: nothing is flushed. Stop drains and exits.
	Kill()
	Stop() error
}

// launcher starts servers.
type launcher interface {
	Start(o serverOpts) (server, error)
}

// procLauncher runs the built binary, pinned to cpus when taskset exists.
type procLauncher struct {
	bin  string
	cpus string // taskset list for servers ("" = unpinned)
	ncpu int    // the servers' GOMAXPROCS
	dir  string // key files and server logs
	n    int
}

type procServer struct {
	cmd   *exec.Cmd
	addr  string
	admin string
	done  chan struct{} // closed when stderr hits EOF
}

var logField = regexp.MustCompile(`(msg|addr)=("[^"]*"|\S+)`)

func (l *procLauncher) Start(o serverOpts) (server, error) {
	l.n++
	keyFile := filepath.Join(l.dir, fmt.Sprintf("key-%d", l.n))
	if err := os.WriteFile(keyFile, []byte(hex.EncodeToString(o.Key)+"\n"), 0o600); err != nil {
		return nil, err
	}
	args := []string{"-multi", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-key-file", keyFile}
	if o.StoreDir != "" {
		args = append(args, "-store", o.StoreDir)
	}
	if o.Tiered {
		args = append(args, "-history-window", strconv.Itoa(historyWindow), "-sync-epsilon", fmt.Sprint(syncEpsilon))
	}
	if o.LeaseFile != "" {
		args = append(args, "-cluster", "-node-id", "primary", "-lease-file", o.LeaseFile)
	}
	if o.ReplicaOf != "" {
		args = append(args, "-replica-of", o.ReplicaOf, "-node-id", "follower")
	}
	cmd := exec.Command(l.bin, args...)
	if l.cpus != "" {
		cmd = exec.Command("taskset", append([]string{"-c", l.cpus, l.bin}, args...)...)
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(l.ncpu))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(l.dir, fmt.Sprintf("server-%d.log", l.n)))
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	s := &procServer{cmd: cmd, done: make(chan struct{})}
	type addrs struct{ addr, admin string }
	ready := make(chan addrs, 1) // one send: the addresses, once both are known
	go func() {
		defer close(s.done)
		defer logFile.Close()
		var a addrs
		sent := false
		sc := bufio.NewScanner(io.TeeReader(stderr, logFile))
		for sc.Scan() {
			if sent {
				continue
			}
			var msg, addr string
			for _, m := range logField.FindAllStringSubmatch(sc.Text(), -1) {
				v := strings.Trim(m[2], `"`)
				if m[1] == "msg" {
					msg = v
				} else {
					addr = v
				}
			}
			switch msg {
			case "admin plane listening":
				a.admin = addr
			case "gateway listening", "cluster node started":
				a.addr = addr
			}
			if a.addr != "" && a.admin != "" {
				ready <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-ready:
		s.addr, s.admin = a.addr, a.admin
		return s, nil
	case <-s.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("server exited during start-up; see %s", logFile.Name())
	case <-time.After(30 * time.Second):
		s.Kill()
		return nil, fmt.Errorf("server not listening after 30s; see %s", logFile.Name())
	}
}

func (s *procServer) Addr() string { return s.addr }

func (s *procServer) Varz() (map[string]any, error) {
	resp, err := http.Get("http://" + s.admin + "/varz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /varz: %w", err)
	}
	return m, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

func (s *procServer) CPU() time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after ") ".
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick
}

func (s *procServer) PeakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func (s *procServer) Kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait()
}

func (s *procServer) Stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-s.done
	return s.cmd.Wait()
}

// inprocLauncher runs the same serving stacks inside this process, for the
// toy-scale tests and the ladder's read-plane rung. Neither measures a
// commit, so the stores do not fsync.
type inprocLauncher struct{}

type inprocServer struct {
	reg  *telemetry.Registry
	gw   *gateway.Gateway
	node *cluster.Node
	done chan struct{} // closed when a standalone gateway's Serve returns
}

func (inprocLauncher) Start(o serverOpts) (server, error) {
	s := &inprocServer{reg: telemetry.New()}
	cfg := gateway.Config{Key: o.Key, Telemetry: s.reg}
	if o.Tiered {
		cfg.HistoryWindow, cfg.SyncEpsilon = historyWindow, syncEpsilon
	}
	if o.LeaseFile != "" || o.ReplicaOf != "" {
		ccfg := cluster.Config{Addr: "127.0.0.1:0", NodeID: "follower", StoreDir: o.StoreDir,
			Gateway: cfg, ReplicaOf: o.ReplicaOf, Telemetry: s.reg}
		if o.ReplicaOf == "" {
			ccfg.NodeID, ccfg.Lease = "primary", cluster.NewFileLease(o.LeaseFile, nil)
		}
		node, err := cluster.Start(ccfg)
		if err != nil {
			return nil, err
		}
		s.node = node
		return s, nil
	}
	cfg.StoreDir = o.StoreDir
	gw, err := gateway.New("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	s.gw, s.done = gw, make(chan struct{})
	go func() {
		defer close(s.done)
		_ = gw.Serve()
	}()
	return s, nil
}

func (s *inprocServer) Addr() string {
	if s.node != nil {
		return s.node.Addr()
	}
	return s.gw.Addr()
}

func (s *inprocServer) Varz() (map[string]any, error) {
	raw, err := json.Marshal(telemetry.VarzMap(s.reg.Snapshot()))
	if err != nil {
		return nil, err
	}
	var m map[string]any
	return m, json.Unmarshal(raw, &m)
}

func (s *inprocServer) CPU() time.Duration { return 0 }
func (s *inprocServer) PeakRSSMB() float64 { return 0 }

func (s *inprocServer) Kill() {
	if s.node != nil {
		s.node.Kill()
		return
	}
	s.gw.Kill()
	<-s.done
}

func (s *inprocServer) Stop() error {
	if s.node != nil {
		return s.node.Close()
	}
	err := s.gw.Close()
	<-s.done
	return err
}

// varzNum reads a counter or gauge; varzHistMean a histogram's sum/count.
func varzNum(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

func varzHistMean(m map[string]any, name string) float64 {
	h, _ := m[name].(map[string]any)
	count, _ := h["count"].(float64)
	sum, _ := h["sum"].(float64)
	if count == 0 {
		return 0
	}
	return sum / count
}
