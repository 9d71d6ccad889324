package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The admin HTTP plane: /metrics (Prometheus text), /varz (JSON snapshot),
// /statusz (human-readable node state), /healthz (readiness), and, behind the
// debug gate only, net/http/pprof — a heap profile sizes what each tenant
// holds, so it shows an owner's record count. It binds its own listener —
// never the serving address — so operator traffic cannot contend with or be
// confused for tenant traffic, and a deployment can firewall the two planes
// separately.

// Status is what a node contributes to /statusz and /healthz beyond the
// metric registry: a human-readable state dump and a readiness verdict with
// real semantics (a follower is ready when it is replicating within its lag
// bound; a primary when it holds the lease and its WAL writer is healthy).
type Status interface {
	// StatusText returns the /statusz body (plain text).
	StatusText() string
	// Ready reports readiness and a one-line explanation.
	Ready() (bool, string)
}

// StatusFuncs adapts two closures into a Status.
type StatusFuncs struct {
	Text    func() string
	ReadyFn func() (bool, string)
}

func (s StatusFuncs) StatusText() string {
	if s.Text == nil {
		return ""
	}
	return s.Text()
}

func (s StatusFuncs) Ready() (bool, string) {
	if s.ReadyFn == nil {
		return true, "ok"
	}
	return s.ReadyFn()
}

// Admin is a running admin endpoint. Create with ServeAdmin, stop with
// Close.
type Admin struct {
	lis net.Listener
	srv *http.Server
}

// ServeAdmin binds addr (port 0 picks a free port) and serves the admin
// plane for reg and status in a background goroutine. status may be nil
// (statusz shows only the registry; healthz always ready). reg may be nil
// (empty exposition). tracer may be nil (/tracez reports tracing disabled).
// debug is the node's tenant debug gate (gateway.Config.DebugTenantMetrics):
// /debug/pprof/ is mounted only when it is on.
func ServeAdmin(addr string, reg *Registry, status Status, tracer *Tracer, debug bool) (*Admin, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteVarz(w, reg.Snapshot())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "dpsync admin plane — %s\n", time.Now().UTC().Format(time.RFC3339))
		if status != nil {
			fmt.Fprintln(w, status.StatusText())
		}
		fmt.Fprint(w, "\nendpoints: /metrics /varz /healthz /tracez")
		if debug {
			fmt.Fprint(w, " /debug/pprof/")
		}
		fmt.Fprintln(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		ok, detail := true, "ok"
		if status != nil {
			ok, detail = status.Ready()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, detail)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "tracing disabled (no tracer configured)")
			return
		}
		d := tracer.Dump()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteTraceJSON(w, d)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = WriteTracez(w, d)
	})
	if debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	a := &Admin{lis: lis, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	go func() { _ = a.srv.Serve(lis) }()
	return a, nil
}

// Addr returns the bound admin address.
func (a *Admin) Addr() string { return a.lis.Addr().String() }

// Close stops the admin server immediately (in-flight scrapes are cut —
// the admin plane never gates shutdown).
func (a *Admin) Close() error { return a.srv.Close() }
