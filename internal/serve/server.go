package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vita/internal/obs"
	"vita/internal/trajectory"
)

// Server exposes a Dataset's query operators over HTTP:
//
//	GET /v1/<op>?<params>   every operator of Operators, e.g. /v1/knn?at=10,7.5&t=60
//	GET /healthz
//	GET /metricsz
//
// Responses are JSON, except that /v1/range and /v1/traj answer a request
// carrying Accept: application/vnd.vita.vtb with the row body of wire.go (a
// small JSON envelope, then the rows as a VTB image). Every operator response
// embeds its per-request Stats (blocks pruned/decoded, cache hits/misses);
// /metricsz aggregates them across the server's lifetime, in Prometheus text
// format. Errors come back as {"error": "..."} with a 4xx/5xx status.
type Server struct {
	ds      *Dataset
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	httpS   *http.Server
	start   time.Time
	opts    ServerOptions
	logger  *slog.Logger
	reg     *obs.Registry

	// endpoints bounds the metric label space: only registered paths get
	// their own series, everything else lands in "other".
	endpoints map[string]bool
	reqDur    *obs.HistogramVec
	reqCount  *obs.CounterVec

	errors    atomic.Int64
	inFlight  atomic.Int64
	pruned    atomic.Int64
	decoded   atomic.Int64
	testDelay time.Duration // test hook: stall every operator request
}

// ServerOptions tunes the server's observability surface. The zero value
// serves metrics on the process-wide default registry and logs through the
// default slog logger, with the slow-query log disabled.
type ServerOptions struct {
	// SlowQuery, when positive, traces every operator request and logs the
	// span tree of any request that takes at least this long. (Tracing must
	// be on for the whole request — a trace cannot be reconstructed after
	// the fact — but the trace is stripped from the response unless the
	// client asked for it with ?trace=1.)
	SlowQuery time.Duration
	// Metrics is the registry behind GET /metricsz (nil = obs.Default()).
	// Tests that assert on exact series pass a fresh obs.NewRegistry.
	Metrics *obs.Registry
	// Logger receives request, error, and slow-query logs (nil =
	// slog.Default()).
	Logger *slog.Logger
}

// NewServer wraps an opened dataset in an HTTP query server with default
// observability options.
func NewServer(ds *Dataset) *Server { return NewServerWith(ds, ServerOptions{}) }

// NewServerWith wraps an opened dataset in an HTTP query server with
// explicit observability options.
func NewServerWith(ds *Dataset, opts ServerOptions) *Server {
	s := &Server{ds: ds, mux: http.NewServeMux(), start: time.Now(), opts: opts}
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.reg = opts.Metrics
	if s.reg == nil {
		s.reg = obs.Default()
	}
	s.httpS = &http.Server{}
	routes := map[string]http.HandlerFunc{
		"/healthz":  s.handleHealthz,
		"/metricsz": s.handleMetricsz,
	}
	for i := range Operators {
		routes[Operators[i].path] = s.handle(&Operators[i])
	}
	s.endpoints = make(map[string]bool, len(routes))
	for path, h := range routes {
		s.mux.HandleFunc("GET "+path, h)
		s.endpoints[path] = true
	}
	s.registerMetrics()
	s.handler = s.withObs(s.mux)
	s.httpS.Handler = s.handler
	return s
}

// Handler returns the server's HTTP handler, observability middleware
// included (useful with httptest).
func (s *Server) Handler() http.Handler { return s.handler }

// registerMetrics exposes the server's and dataset's existing atomic
// counters on the registry as scrape-time func metrics — one source of
// truth, no double counting — plus the live request vectors.
func (s *Server) registerMetrics() {
	r := s.reg
	s.reqDur = r.HistogramVec("vita_http_request_duration_seconds",
		"HTTP request latency in seconds by endpoint.", nil, "endpoint")
	s.reqCount = r.CounterVec("vita_http_requests_total",
		"HTTP requests by endpoint and response status.", "endpoint", "status")

	counter := func(name, help string, fn func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	gauge := func(name, help string, fn func() int64) {
		r.GaugeFunc(name, help, func() float64 { return float64(fn()) })
	}
	gauge("vita_http_in_flight", "Operator requests currently executing.", s.inFlight.Load)
	counter("vita_http_errors_total", "Requests answered with an error body.", s.errors.Load)
	counter("vita_blocks_pruned_total", "Blocks skipped by zone-map pruning across all requests.", s.pruned.Load)
	counter("vita_blocks_decoded_total", "Blocks decoded (block-cache misses) across all requests.", s.decoded.Load)

	ds := s.ds
	counter("vita_block_cache_hits_total", "Decoded-block cache hits.", func() int64 { return ds.CacheStats().Hits })
	counter("vita_block_cache_misses_total", "Decoded-block cache misses.", func() int64 { return ds.CacheStats().Misses })
	counter("vita_block_cache_evictions_total", "Decoded blocks evicted by the cache's byte bound.", func() int64 { return ds.CacheStats().Evictions })
	counter("vita_block_cache_invalidations_total", "Cached blocks dropped because their segment left the live set.", ds.BlockInvalidations)
	gauge("vita_block_cache_bytes", "Bytes of decoded blocks resident in the cache.", func() int64 { return ds.CacheStats().Bytes })
	gauge("vita_block_cache_blocks", "Decoded blocks resident in the cache.", func() int64 { return int64(ds.CacheStats().Blocks) })

	gauge("vita_dataset_segments", "Live segments currently served (0 when not segmented).", func() int64 { return int64(ds.Segments()) })
	gauge("vita_dataset_generation", "Manifest generation currently served.", func() int64 { return int64(ds.Generation()) })
	counter("vita_compactions_total", "Compactions recorded by the served manifest (cross-process).", func() int64 { return int64(ds.Compactions()) })
	counter("vita_manifest_refreshes_total", "Manifest generations the dataset has folded in.", ds.Refreshes)
	obs.RegisterBuildInfo(r)
	obs.RegisterRuntimeMetrics(r)
}

// reqCtxKey carries per-request observability state through the context.
type reqCtxKey struct{}

type reqInfo struct {
	id    string
	start time.Time
}

// reqInfoFrom returns the request's observability state, or nil when the
// handler runs outside the middleware.
func reqInfoFrom(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqCtxKey{}).(*reqInfo)
	return info
}

// statusRecorder captures the response status for metrics and logs, and
// whether the header has gone out — after which a failure can no longer be
// answered with an error body.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status, r.wrote = code, true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// withObs wraps the mux in the observability middleware: request-ID
// generation (honoring a caller-supplied X-Request-Id) echoed in the
// response header, per-endpoint latency histograms and status-labeled
// request counters, and a structured request log line (info for /v1
// operators, debug for everything else). A handler that panics is recovered
// here, so it is measured, counted and logged like any other failure: the
// client gets the 500 error envelope (when no header has gone out yet), the
// request counts under status="500" and in vita_http_errors_total, and the
// stack goes to the log at error level.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		info := &reqInfo{id: id, start: time.Now()}
		r = r.WithContext(context.WithValue(r.Context(), reqCtxKey{}, info))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		func() {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p) // net/http's own way to abort a response, not a bug
				}
				s.logger.Error("handler panic",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", p,
					"stack", string(debug.Stack()),
					"request_id", id)
				if rec.wrote {
					s.errors.Add(1)
					rec.status = http.StatusInternalServerError
					return
				}
				s.fail(rec, r, http.StatusInternalServerError, errors.New("internal error"))
			}()
			next.ServeHTTP(rec, r)
		}()
		dur := time.Since(info.start)

		ep := r.URL.Path
		if !s.endpoints[ep] {
			ep = "other"
		}
		s.reqDur.With(ep).Observe(dur.Seconds())
		s.reqCount.With(ep, strconv.Itoa(rec.status)).Inc()

		logFn := s.logger.Debug
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			logFn = s.logger.Info
		}
		logFn("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"request_id", id)
	})
}

// finishTrace completes an operator request's tracing: it emits the
// slow-query log when the request crossed the threshold, then strips the
// trace from the response unless the client asked for it. No-op when the
// response carries no trace (tracing off).
func (s *Server) finishTrace(r *http.Request, wantTrace bool, trace **obs.Span) {
	if *trace == nil {
		return
	}
	if s.opts.SlowQuery > 0 {
		if info := reqInfoFrom(r); info != nil {
			if dur := time.Since(info.start); dur >= s.opts.SlowQuery {
				js, _ := json.Marshal(*trace)
				s.logger.Warn("slow query",
					"path", r.URL.Path,
					"query", r.URL.RawQuery,
					"duration_ms", float64(dur)/float64(time.Millisecond),
					"threshold_ms", float64(s.opts.SlowQuery)/float64(time.Millisecond),
					"request_id", info.id,
					"trace", string(js))
			}
		}
	}
	if !wantTrace {
		*trace = nil
	}
}

// EnablePprof mounts net/http/pprof's profiling endpoints under
// /debug/pprof/ on the server's mux (vitaserve's -pprof flag), so a running
// daemon can be CPU/heap/goroutine-profiled in place:
//
//	go tool pprof http://host:port/debug/pprof/profile?seconds=30
//	go tool pprof http://host:port/debug/pprof/heap
//
// Call before Serve. The endpoints expose internals — keep them off (the
// default) unless the listen address is trusted.
//
// EnablePprof also applies opts' block and mutex sampling rates (the
// runtime settings are process-wide, not per-server); without them the
// /debug/pprof/{block,mutex} profiles are permanently empty.
func (s *Server) EnablePprof(opts PprofOptions) {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	switch {
	case opts.BlockProfileRate > 0:
		runtime.SetBlockProfileRate(opts.BlockProfileRate)
	case opts.BlockProfileRate < 0:
		runtime.SetBlockProfileRate(0)
	}
	switch {
	case opts.MutexProfileFraction > 0:
		runtime.SetMutexProfileFraction(opts.MutexProfileFraction)
	case opts.MutexProfileFraction < 0:
		runtime.SetMutexProfileFraction(0)
	}
}

// PprofOptions tunes the runtime profiling rates EnablePprof applies.
type PprofOptions struct {
	// BlockProfileRate is the argument to runtime.SetBlockProfileRate: one
	// blocking event per rate nanoseconds blocked is sampled. 1 samples
	// every event (costly), 0 leaves the current setting untouched, < 0
	// disables block profiling.
	BlockProfileRate int
	// MutexProfileFraction is the argument to
	// runtime.SetMutexProfileFraction: 1/fraction of mutex contention events
	// are sampled. 1 samples every event, 0 leaves the current setting
	// untouched, < 0 disables mutex profiling.
	MutexProfileFraction int
}

// DefaultPprofOptions samples a blocking event per 10ms cumulatively blocked
// and 1 in 5 mutex contention events — cheap enough for a production daemon,
// dense enough that a loaded server produces non-empty profiles.
func DefaultPprofOptions() PprofOptions {
	return PprofOptions{BlockProfileRate: 10 * 1000 * 1000, MutexProfileFraction: 5}
}

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean shutdown. Serve may be called at most once per Server.
func (s *Server) Serve(l net.Listener) error {
	if err := s.httpS.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown stops accepting new connections and waits — up to the context's
// deadline — for in-flight requests to drain.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpS.Shutdown(ctx)
}

// RunUntilSignal serves on l until one of sigs arrives (or ctx is
// cancelled), then drains in-flight requests for up to drainTimeout before
// returning. A clean drain returns nil.
func (s *Server) RunUntilSignal(ctx context.Context, l net.Listener, drainTimeout time.Duration, sigs ...os.Signal) error {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, sigs...)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()

	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-sigCh:
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return <-errCh
}

// handle serves one operator: decode the request (a bad parameter is a 400
// naming it), run it on the dataset, fold its stats into the lifetime
// counters, finish its trace, and answer with the row body or JSON.
func (s *Server) handle(op *Operator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		p := r.URL.Query()
		// The slow-query log needs every request it might flag traced from
		// the start; the client gets the trace only when it asked.
		wantTrace := p.Get("trace") == "1"
		resp, err := op.Run(s.ds, p, wantTrace || s.opts.SlowQuery > 0)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.As(err, new(badParam)) {
				status = http.StatusBadRequest
			}
			s.fail(w, r, status, err)
			return
		}
		time.Sleep(s.testDelay)
		m := resp.Meta()
		s.pruned.Add(int64(m.Stats.Scan.BlocksPruned))
		// Scan.BlocksScanned counts every surviving block, cache-served or
		// not; only the misses decoded anything.
		s.decoded.Add(int64(m.Stats.CacheMisses))
		s.finishTrace(r, wantTrace, &m.Trace)
		if rows := op.rows(resp); rows == nil {
			s.writeJSON(w, r, resp)
		} else {
			s.writeRows(w, r, resp, rows)
		}
	}
}

// Health is the /healthz payload: liveness plus build identity, so one
// probe answers "is it up" and "what exactly is running".
type Health struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	Commit        string  `json:"commit"`
	Go            string  `json:"go"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := obs.Build()
	s.writeJSON(w, r, Health{
		Status:        "ok",
		Version:       b.Version,
		Commit:        b.Commit,
		Go:            b.Go,
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleMetricsz serves the registry in Prometheus text exposition format.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.errors.Add(1)
	}
}

// writeJSON answers with v as JSON. The body is encoded whole before the
// header goes out, so a value encoding/json refuses becomes a 500 error
// envelope instead of a 200 with a truncated body.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	buf := getBodyBuf()
	defer bodyBufs.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, "application/json", buf.Bytes())
}

// writeRows answers a request for sample rows — resp, whose row slice is
// *rows — with the row body when the client asked for it, else with JSON.
func (s *Server) writeRows(w http.ResponseWriter, r *http.Request, resp any, rows *[]trajectory.Sample) {
	w.Header().Set("Vary", "Accept")
	if !strings.Contains(r.Header.Get("Accept"), vtbMediaType) {
		s.writeJSON(w, r, resp)
		return
	}
	buf := getBodyBuf()
	defer bodyBufs.Put(buf)
	if err := encodeRowsBody(buf, resp, rows); err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, vtbMediaType, buf.Bytes())
}

// writeBody sends a complete body in one Write with its length declared.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.errors.Add(1)
	}
}

// errorBody is the structured error envelope every failed request returns:
// the message plus the request ID, so a client-side report can be joined
// against the server's logs.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.errors.Add(1)
	var id string
	if info := reqInfoFrom(r); info != nil {
		id = info.id
	}
	s.logger.Warn("request failed",
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"error", err.Error(),
		"request_id", id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), RequestID: id})
}
