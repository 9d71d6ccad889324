package cluster

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Lease-based election. Exactly one node may hold the cluster lease at a
// time; the holder is the primary. The holder renews well before expiry;
// everyone else campaigns after expiry. Election is deliberately *not*
// consensus — the lease store (a shared file, FileLease) is the single
// arbiter, standing in for the small coordination service (etcd, a managed
// lock) a production fleet would use. What the design guarantees is what
// failover needs: a node that cannot renew stops serving before anyone else
// can acquire (the TTL is the fencing window), and every decision is a pure
// function of (state, node, now) so tests can drive elections with an
// injected clock, deterministically.

// LeaseState is the arbiter's current view: who holds the lease, where that
// node serves, and when the claim lapses.
type LeaseState struct {
	Holder  string
	Addr    string
	Expires time.Time
}

// Lease is the election arbiter.
type Lease interface {
	// Acquire attempts to take (or, for the current holder, renew) the
	// lease. It returns the state after the attempt and whether node now
	// holds the lease.
	Acquire(node, addr string, ttl time.Duration) (LeaseState, bool, error)
	// State reads the current state without mutating it.
	State() (LeaseState, error)
	// Release drops the lease if node holds it, letting a graceful shutdown
	// hand over without waiting out the TTL.
	Release(node string) error
}

// grantable is the election decision, pure so tests can pin it against a
// table: a lease is up for grabs when nobody holds it, when the claim has
// lapsed, or when the asker already holds it (renewal).
func grantable(st LeaseState, node string, now time.Time) bool {
	return st.Holder == "" || st.Holder == node || !now.Before(st.Expires)
}

// campaignStagger spaces nodes' campaign attempts apart deterministically —
// a pure function of the node ID, so two nodes discovering an expired lease
// in the same tick do not race the arbiter forever. The offset is bounded
// by a quarter TTL: late enough to order campaigns, early enough never to
// double the failover window.
func campaignStagger(node string, ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(node))
	return time.Duration(uint64(ttl) / 4 * uint64(h.Sum32()%16) / 16)
}

// leaseMagic is the first line of a lease file; versioned like every other
// on-disk format in the system.
const leaseMagic = "dpsync-lease v1"

// EncodeLease renders a lease state as the file format FileLease stores:
//
//	dpsync-lease v1
//	<holder>
//	<addr>
//	<expires unix nanoseconds>
//
// Line-oriented and human-readable on purpose — an operator inspecting a
// wedged cluster reads it with cat.
func EncodeLease(st LeaseState) []byte {
	// A zero Expires encodes as literal 0 — the zero time.Time's UnixNano is
	// a garbage negative number that a released lease must not carry.
	var ns int64
	if !st.Expires.IsZero() {
		ns = st.Expires.UnixNano()
	}
	return []byte(fmt.Sprintf("%s\n%s\n%s\n%d\n", leaseMagic, st.Holder, st.Addr, ns))
}

// ParseLease parses a lease file image. Malformed input — wrong magic,
// missing lines, a node id or address with framing bytes in it, a
// non-numeric expiry — is rejected; it never panics, whatever the bytes
// claim (the file sits on shared storage, so it is fuzz-pinned like every
// other codec in the system).
func ParseLease(data []byte) (LeaseState, error) {
	s := string(data)
	lines := strings.Split(s, "\n")
	if len(lines) < 4 || lines[0] != leaseMagic {
		return LeaseState{}, fmt.Errorf("cluster: malformed lease file (bad magic or missing lines)")
	}
	for _, extra := range lines[4:] {
		if extra != "" {
			return LeaseState{}, fmt.Errorf("cluster: trailing bytes after lease")
		}
	}
	holder, addr := lines[1], lines[2]
	if strings.ContainsAny(holder, "\r") || strings.ContainsAny(addr, "\r") {
		return LeaseState{}, fmt.Errorf("cluster: carriage return in lease field")
	}
	if holder == "" && (addr != "" || lines[3] != "0") {
		return LeaseState{}, fmt.Errorf("cluster: released lease with residual fields")
	}
	if len(holder) > 255 || len(addr) > 255 {
		return LeaseState{}, fmt.Errorf("cluster: lease field exceeds 255 bytes")
	}
	ns, err := strconv.ParseInt(lines[3], 10, 64)
	if err != nil {
		return LeaseState{}, fmt.Errorf("cluster: lease expiry: %v", err)
	}
	st := LeaseState{Holder: holder, Addr: addr}
	if ns != 0 || holder != "" {
		st.Expires = time.Unix(0, ns)
	}
	return st, nil
}

// FileLease is the shared-file arbiter: the nodes of cmd/dpsync-server on one
// machine (or one shared filesystem), of loadgen's in-process cluster and of
// the tests elect through an atomically-renamed lease file, on an injectable
// clock. Rename-last-wins means two simultaneous campaigns can both
// believe they won for one write cycle; the deterministic campaign stagger
// makes that window practically unreachable, and the TTL bounds the damage
// — this is the operational stand-in, not a consensus protocol (the
// arbiter seam is Lease; a real fleet plugs a coordination service in).
type FileLease struct {
	path string
	now  func() time.Time
	mu   sync.Mutex
}

// NewFileLease builds a file-backed arbiter at path. now is the clock (nil:
// time.Now).
func NewFileLease(path string, now func() time.Time) *FileLease {
	if now == nil {
		now = time.Now
	}
	return &FileLease{path: path, now: now}
}

// read loads the current state; a missing file is an empty (grantable)
// lease, a malformed one is an error (never silently treated as free — an
// operator must look before two primaries can).
func (l *FileLease) read() (LeaseState, error) {
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return LeaseState{}, nil
	}
	if err != nil {
		return LeaseState{}, fmt.Errorf("cluster: reading lease: %w", err)
	}
	return ParseLease(data)
}

// write persists st via tmp+rename so readers only ever see whole files.
func (l *FileLease) write(st LeaseState) error {
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, EncodeLease(st), 0o644); err != nil {
		return fmt.Errorf("cluster: writing lease: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: writing lease: %w", err)
	}
	return nil
}

// Acquire implements Lease.
func (l *FileLease) Acquire(node, addr string, ttl time.Duration) (LeaseState, bool, error) {
	if node == "" {
		return LeaseState{}, false, fmt.Errorf("cluster: empty node id")
	}
	if strings.ContainsAny(node+addr, "\n\r") {
		return LeaseState{}, false, fmt.Errorf("cluster: newline in node id or address")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.read()
	if err != nil {
		return LeaseState{}, false, err
	}
	now := l.now()
	if !grantable(st, node, now) {
		return st, false, nil
	}
	st = LeaseState{Holder: node, Addr: addr, Expires: now.Add(ttl)}
	if err := l.write(st); err != nil {
		return LeaseState{}, false, err
	}
	return st, true, nil
}

// State implements Lease.
func (l *FileLease) State() (LeaseState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.read()
}

// Release implements Lease.
func (l *FileLease) Release(node string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, err := l.read()
	if err != nil {
		return err
	}
	if st.Holder != node {
		return nil
	}
	return l.write(LeaseState{})
}

// LeasePathInDir is a convenience for colocating the lease with a store
// directory tree (cmd/dpsync-server's -cluster mode default).
func LeasePathInDir(dir string) string { return filepath.Join(dir, "cluster.lease") }
