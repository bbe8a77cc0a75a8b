package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewMux returns the observability HTTP handler for a sink:
//
//	/metrics       Prometheus text exposition of the sink's registry
//	/metrics.json  the same registry as deterministic JSON
//	/trace         Chrome trace_event JSON of spans recorded so far
//	/healthz       "ok" (liveness)
//	/debug/pprof/  the standard net/http/pprof handlers (profiles run
//	               with goroutine labels from internal/parallel workers)
//
// All handlers are safe while the instrumented run is still executing;
// /trace of an in-flight run is a valid partial trace.
func NewMux(s *Sink) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var reg *Registry
		if s != nil {
			reg = s.Reg
		}
		WriteProm(w, reg)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var reg *Registry
		if s != nil {
			reg = s.Reg
		}
		WriteJSON(w, reg)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s == nil || s.Tr == nil {
			io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n")
			return
		}
		WriteTrace(w, s.Tr)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// A scraper that stalls mid-header, or goes quiet partway into its next
// keep-alive request, is dropped after these bounds instead of holding a
// goroutine and a socket forever. There is deliberately no write timeout:
// /debug/pprof/profile streams for 30 s.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve starts the observability endpoint on addr (e.g. ":9090"; ":0"
// picks a free port) in a background goroutine and returns immediately.
func Serve(addr string, s *Sink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(s), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }
