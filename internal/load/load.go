// Package load is the workload-replay load-testing harness behind
// cmd/vitaload: it replays a weighted mix of serve.Operators (all but info
// and watch) against any serve.Querier — an in-process serve.Dataset or a
// live vitaserve daemon through serve.Client — and reports per-endpoint
// throughput, error counts, and latency quantiles from log-bucketed
// histograms (obs.Histogram over obs.ExponentialBuckets).
//
// Two driving modes:
//
//   - Open loop (ModeOpen): requests are dispatched on a fixed schedule of
//     Rate per second regardless of how fast responses come back, and each
//     request's latency is measured from its *scheduled* send time. A slow
//     server therefore inflates the recorded latencies instead of silently
//     slowing the generator down — the standard defense against coordinated
//     omission. If the in-flight queue fills, excess requests are counted
//     as Dropped rather than blocking the schedule.
//
//   - Closed loop (ModeClosed): Concurrency workers each issue requests
//     back-to-back, measuring per-request service time. Throughput floats
//     to whatever the server sustains at that concurrency.
//
// Query parameters are drawn deterministically (seeded) from distributions
// fitted to the dataset's /v1/info summary — spatial bounds, time span,
// floors, object count — so the replayed queries hit real data.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vita/internal/obs"
	"vita/internal/serve"
)

// Driving modes.
const (
	ModeOpen   = "open"
	ModeClosed = "closed"
)

// Options configures one load run. Mode, Duration, and either Rate (open
// loop) or Concurrency (closed loop) are the load shape; everything else
// has serviceable defaults.
type Options struct {
	// Mode is ModeOpen or ModeClosed (default ModeOpen).
	Mode string
	// Rate is the open-loop arrival rate in requests/second (default 100).
	Rate float64
	// Concurrency is the worker count: the in-flight bound in open loop,
	// the exact loop population in closed loop (default 16).
	Concurrency int
	// Duration is how long to keep issuing requests (default 10s).
	Duration time.Duration
	// Mix is the operator mix (zero value = DefaultMix).
	Mix Mix
	// Seed makes the request sequence reproducible (0 = seed 1).
	Seed int64
	// MetricsURL, when set, is scraped (/metricsz Prometheus text) before
	// and after the run; the report carries the per-counter delta — what
	// the run cost the server in blocks decoded, cache churn, requests.
	MetricsURL string
	// Progress, when set, receives a snapshot every ProgressEvery (default
	// 1s) from a separate goroutine.
	Progress func(Progress)
	// ProgressEvery is the Progress callback interval (default 1s).
	ProgressEvery time.Duration
	// queueSize overrides the open-loop dispatch queue (tests only).
	queueSize int
}

// Progress is one live snapshot of a running load test.
type Progress struct {
	Elapsed  time.Duration
	Sent     int64
	Errors   int64
	Dropped  int64
	P50, P99 float64 // seconds, over all endpoints so far
}

func (o Options) withDefaults() (Options, error) {
	if o.Mode == "" {
		o.Mode = ModeOpen
	}
	if o.Mode != ModeOpen && o.Mode != ModeClosed {
		return o, fmt.Errorf("load: unknown mode %q (want %s or %s)", o.Mode, ModeOpen, ModeClosed)
	}
	if o.Rate <= 0 {
		o.Rate = 100
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 16
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if len(o.Mix.Weights) == 0 {
		o.Mix = DefaultMix()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = time.Second
	}
	if o.queueSize <= 0 {
		o.queueSize = 1 << 16
	}
	return o, nil
}

// latencyBuckets is the layout of every latency histogram of a run: seconds
// from 1µs to 20 minutes in 1.04× steps (~4 KiB of counters), so a reported
// quantile is within √1.04 − 1 ≈ 2% of the true one.
var latencyBuckets = obs.ExponentialBuckets(1e-6, 1200, 1.04)

// opStats accumulates one endpoint's outcomes.
type opStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	hist     *obs.Histogram
}

// runner is the shared state of one load run.
type runner struct {
	q       serve.Querier
	opts    Options
	gen     *generator
	start   time.Time
	perOp   map[string]*opStats
	overall *obs.Histogram
	sent    atomic.Int64
	errs    atomic.Int64
	dropped atomic.Int64
}

// Run executes one load test and blocks until it completes (or ctx is
// cancelled, which stops dispatch and drains in-flight requests).
func Run(ctx context.Context, q serve.Querier, opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	info, err := q.Info(false)
	if err != nil {
		return nil, fmt.Errorf("load: fetch dataset info: %w", err)
	}
	gen, err := newGenerator(opts.Mix, info)
	if err != nil {
		return nil, err
	}

	r := &runner{
		q:       q,
		opts:    opts,
		gen:     gen,
		perOp:   make(map[string]*opStats, len(gen.ops)),
		overall: obs.NewHistogram(latencyBuckets),
	}
	for _, op := range gen.ops {
		r.perOp[op] = &opStats{hist: obs.NewHistogram(latencyBuckets)}
	}

	var before map[string]float64
	if opts.MetricsURL != "" {
		if before, err = ScrapeMetrics(opts.MetricsURL); err != nil {
			return nil, fmt.Errorf("load: scrape %s before run: %w", opts.MetricsURL, err)
		}
	}

	r.start = time.Now()
	stopProgress := r.startProgress()
	if opts.Mode == ModeOpen {
		r.runOpen(ctx)
	} else {
		r.runClosed(ctx)
	}
	elapsed := time.Since(r.start)
	stopProgress()

	rep := r.report(elapsed)
	if opts.MetricsURL != "" {
		after, err := ScrapeMetrics(opts.MetricsURL)
		if err != nil {
			return nil, fmt.Errorf("load: scrape %s after run: %w", opts.MetricsURL, err)
		}
		rep.ServerDelta = DeltaCounters(before, after)
	}
	return rep, nil
}

// issue sends one call and records its latency from the given origin time
// (scheduled time in open loop, send time in closed loop).
func (r *runner) issue(op string, call func(serve.Querier) error, origin time.Time) {
	err := call(r.q)
	lat := time.Since(origin).Seconds()

	st := r.perOp[op]
	st.requests.Add(1)
	st.hist.Observe(lat)
	r.overall.Observe(lat)
	r.sent.Add(1)
	if err != nil {
		st.errors.Add(1)
		r.errs.Add(1)
	}
}

// scheduled is one open-loop request with its scheduled send time.
type scheduled struct {
	op   string
	call func(serve.Querier) error
	due  time.Time
}

// runOpen drives the open loop: one dispatcher generates requests on the
// fixed schedule start + i/Rate and hands them to Concurrency workers over
// a deep queue. Latency is measured from the scheduled time, so queueing
// behind a slow server shows up in the numbers instead of slowing dispatch.
func (r *runner) runOpen(ctx context.Context) {
	ch := make(chan scheduled, r.opts.queueSize)
	var wg sync.WaitGroup
	for w := 0; w < r.opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				r.issue(s.op, s.call, s.due)
			}
		}()
	}

	rng := rand.New(rand.NewSource(r.opts.Seed))
	interval := float64(time.Second) / r.opts.Rate
	deadline := r.start.Add(r.opts.Duration)
	for i := 0; ; i++ {
		due := r.start.Add(time.Duration(float64(i) * interval))
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				goto done
			}
		} else if ctx.Err() != nil {
			break
		}
		op, call := r.gen.next(rng)
		select {
		case ch <- scheduled{op: op, call: call, due: due}:
		default:
			// The queue bound was hit: the server is so far behind that
			// Concurrency workers plus queueSize waiters cannot absorb the
			// schedule. Recording a drop keeps the schedule honest — the
			// alternative (blocking here) would silently re-introduce
			// coordinated omission.
			r.dropped.Add(1)
		}
	}
done:
	close(ch)
	wg.Wait()
}

// runClosed drives the closed loop: Concurrency workers issue back-to-back
// requests until the deadline, each with its own deterministic stream.
func (r *runner) runClosed(ctx context.Context) {
	deadline := r.start.Add(r.opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < r.opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.opts.Seed + int64(w)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op, call := r.gen.next(rng)
				r.issue(op, call, time.Now())
			}
		}(w)
	}
	wg.Wait()
}

// startProgress launches the progress ticker; the returned func stops it.
func (r *runner) startProgress() func() {
	if r.opts.Progress == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(r.opts.ProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.opts.Progress(Progress{
					Elapsed: time.Since(r.start),
					Sent:    r.sent.Load(),
					Errors:  r.errs.Load(),
					Dropped: r.dropped.Load(),
					P50:     r.overall.Quantile(0.5),
					P99:     r.overall.Quantile(0.99),
				})
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
