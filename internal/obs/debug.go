package obs

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServeDebug starts an HTTP server on addr exposing net/http/pprof
// profiles (/debug/pprof/), the stdlib expvar variables (/debug/vars),
// the registry's full flight record, profile included (/debug/obs),
// and, when metrics is non-nil, the live plane's exposition at
// /metrics, so long experiment sweeps can be watched while they run.
// It returns the bound address (useful with ":0") and a shutdown func.
// Shutdown drains gracefully: an in-flight /metrics or /debug/obs
// scrape completes before the listener closes, and the shutdown error
// (if any) is returned to the caller instead of being dropped.
func ServeDebug(addr string, r *Registry, metrics http.Handler) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, req *http.Request) {
		serveObs(w, r)
	})
	if metrics != nil {
		mux.Handle("/metrics", metrics)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed by shutdown
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// A scrape held the connection past the drain deadline;
			// fall back to a hard close so the process can exit.
			srv.Close()
			return fmt.Errorf("obs: debug server shutdown: %w", err)
		}
		return nil
	}
	return ln.Addr().String(), stop, nil
}

// serveObs renders the registry's full record for /debug/obs. It
// serializes to a buffer before touching the ResponseWriter: streaming
// straight into w and calling http.Error on failure would WriteHeader
// a second time when a client disconnects mid-write (every write after
// the first flush fails), spamming "superfluous response.WriteHeader"
// and, worse, appending an error line to a half-sent 200 body.
func serveObs(w http.ResponseWriter, r *Registry) {
	rec := r.Record("debug", nil, true)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes()) //nolint:errcheck // client went away
}
