package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// Handler returns the debug endpoint's HTTP handler:
//
//	/metrics       JSON snapshot of the registry (Snapshot shape)
//	/trace         Chrome trace-event JSON of the tracer (load in Perfetto)
//	/debug/pprof/  the standard runtime profiles
//	/              a plain-text index of the above
//
// reg and tr may be nil; the corresponding endpoints then serve empty
// documents, so a partially wired binary still exposes pprof.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	return HandlerWith(reg, tr, nil)
}

// HandlerWith is Handler plus caller-supplied routes (path → handler),
// letting a binary mount extra endpoints — /healthz, /cluster — on the
// same debug mux. Extra routes are listed in the index and may not shadow
// the built-in paths.
func HandlerWith(reg *Registry, tr *Tracer, extra map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// The connection is gone on encode failure; nothing to report to.
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="elrec-trace.json"`)
		_ = tr.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extraPaths := make([]string, 0, len(extra))
	for path := range extra {
		extraPaths = append(extraPaths, path)
	}
	sort.Strings(extraPaths)
	for _, path := range extraPaths {
		mux.HandleFunc(path, extra[path])
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "elrec debug endpoint")
		fmt.Fprintln(w, "  /metrics       metrics registry snapshot (JSON)")
		fmt.Fprintln(w, "  /trace         Chrome trace-event JSON (open in ui.perfetto.dev)")
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
		for _, path := range extraPaths {
			fmt.Fprintf(w, "  %s\n", path)
		}
	})
	return mux
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound address (useful with a ":0" listen request).
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close stops the server, waiting briefly for in-flight requests.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}

// Shutdown drains gracefully: no new connections, in-flight requests get
// up to timeout to finish, then the remnants are force-closed. A zero or
// negative timeout degrades to Close.
func (d *DebugServer) Shutdown(timeout time.Duration) error {
	if d == nil {
		return nil
	}
	if timeout <= 0 {
		return d.srv.Close()
	}
	//elrec:rootctx shutdown outlives any request context; bounded by the timeout itself
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}

// Serve binds addr and serves the debug endpoint on a background
// goroutine until Close. The server carries header/idle timeouts so a
// stalled or idle debug client cannot pin connections forever.
func Serve(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	return ServeWith(addr, reg, tr, nil)
}

// ServeWith is Serve with caller-supplied extra routes (see HandlerWith).
func ServeWith(addr string, reg *Registry, tr *Tracer, extra map[string]http.HandlerFunc) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	srv := &http.Server{
		Handler:           HandlerWith(reg, tr, extra),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		// ErrServerClosed after Close is the expected shutdown path; any
		// other serve error has no caller left to report to.
		_ = srv.Serve(ln)
	}()
	return &DebugServer{srv: srv, ln: ln}, nil
}
