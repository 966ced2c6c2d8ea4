package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// This file is the serving layer's armor: per-request middleware (panic
// recovery, body caps, deadlines), liveness/readiness endpoints, and the
// configured http.Server lifecycle with signal-driven graceful drain that
// both podium-server modes share. The design constraint throughout is that
// hardening must not tax the lock-free read path: the middleware adds one
// small allocation and one deferred recover per request, both noise next to
// instance lookup and JSON encoding.

// HardenOptions tunes the per-request protective middleware.
type HardenOptions struct {
	// RequestTimeout bounds each request's context (default 30s; negative
	// disables). Handlers observe it through r.Context(); it is the
	// server-side counterpart of the client's per-request deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies via http.MaxBytesReader (default
	// 8 MiB; negative disables). Oversized bodies surface as decode errors
	// in the handler, i.e. 400s, not OOMs.
	MaxBodyBytes int64
	// Logf receives panic reports with stack traces (default log.Printf).
	Logf func(format string, args ...interface{})
}

func (o HardenOptions) withDefaults() HardenOptions {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Hardened wraps the server's handler with panic recovery, a request body
// cap and a per-request deadline. A handler panic becomes a logged 500 (with
// stack trace) instead of a killed connection — except http.ErrAbortHandler,
// which is re-panicked so net/http aborts the connection as intended (the
// writeJSON short-write path and fault injection rely on that). Every
// podium-server mode (single node, mutable, shard, coordinator) serves
// through it.
func (s *Server) Hardened(opts HardenOptions) http.Handler {
	opts = opts.withDefaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hw := &hardenedWriter{ResponseWriter: w}
		defer func() {
			if e := recover(); e != nil {
				if err, ok := e.(error); ok && err == http.ErrAbortHandler {
					panic(e)
				}
				opts.Logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, e, debug.Stack())
				if !hw.wroteHeader {
					writeError(hw, r, http.StatusInternalServerError, codeInternal, "internal error")
				} else {
					// Headers are out; the only honest move is to kill the
					// connection rather than serve a truncated 200.
					panic(http.ErrAbortHandler)
				}
			}
		}()
		if opts.MaxBodyBytes > 0 && r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(hw, r.Body, opts.MaxBodyBytes)
		}
		if opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		s.ServeHTTP(hw, r)
	})
}

// hardenedWriter tracks whether the header has been written, so the recovery
// path knows whether a 500 can still be sent.
type hardenedWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (h *hardenedWriter) WriteHeader(status int) {
	h.wroteHeader = true
	h.ResponseWriter.WriteHeader(status)
}

func (h *hardenedWriter) Write(p []byte) (int, error) {
	h.wroteHeader = true
	return h.ResponseWriter.Write(p)
}

// handleHealthz is liveness: 200 whenever the process can serve at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting traffic, 503 once draining
// so load balancers stop routing here before in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "ready"})
}

// StartDrain flips /readyz to 503. Run calls it when shutdown begins;
// embedders driving their own lifecycle call it before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// RunOptions configures the shared listener lifecycle (both podium-server
// modes run through it): http.Server timeouts, the drain deadline, and the
// shutdown trigger.
type RunOptions struct {
	// ReadHeaderTimeout/ReadTimeout/WriteTimeout/IdleTimeout configure the
	// http.Server (defaults 5s/30s/60s/120s; negative disables one). Without
	// them a single slow-loris client can pin connections forever.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish before the listener is torn down hard (default 10s).
	DrainTimeout time.Duration
	// Signals, when set, replaces the default SIGINT/SIGTERM subscription —
	// tests inject a channel here to drive shutdown deterministically.
	Signals <-chan os.Signal
	// OnReady runs once the listener is bound, with the bound address
	// (useful with ":0").
	OnReady func(addr net.Addr)
	// OnDrain runs when shutdown begins, before in-flight requests are
	// drained — the place to flip readiness (Server.StartDrain).
	OnDrain func()
	// Logf receives lifecycle messages (default log.Printf).
	Logf func(format string, args ...interface{})
}

func (o RunOptions) withDefaults() RunOptions {
	if o.ReadHeaderTimeout == 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 60 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 120 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// clampTimeout maps the "negative disables" convention onto http.Server's
// "zero disables".
func clampTimeout(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Run serves h on addr with configured timeouts until SIGINT/SIGTERM (or a
// send on opts.Signals), then shuts down gracefully: OnDrain fires (flip
// readiness, stop advertising), in-flight requests drain up to DrainTimeout,
// and Run returns nil on a clean drain. A listener or serve failure returns
// the error immediately. Campaign pausing and apply-loop flushing belong to
// the caller, after Run returns — see cmd/podium-server.
func Run(addr string, h http.Handler, opts RunOptions) error {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: clampTimeout(opts.ReadHeaderTimeout),
		ReadTimeout:       clampTimeout(opts.ReadTimeout),
		WriteTimeout:      clampTimeout(opts.WriteTimeout),
		IdleTimeout:       clampTimeout(opts.IdleTimeout),
	}
	if opts.OnReady != nil {
		opts.OnReady(ln.Addr())
	}

	sigCh := opts.Signals
	if sigCh == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(ch)
		sigCh = ch
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		// Serve never returns nil; anything here is a real failure.
		return fmt.Errorf("server: %w", err)
	case sig := <-sigCh:
		opts.Logf("server: %v — draining (deadline %s)", sig, opts.DrainTimeout)
	}
	if opts.OnDrain != nil {
		opts.OnDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		// Deadline hit with requests still in flight: tear down hard.
		hs.Close()
		return fmt.Errorf("server: drain incomplete: %w", err)
	}
	return nil
}
