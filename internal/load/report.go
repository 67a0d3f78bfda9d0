package load

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vita/internal/obs"
)

// LatencySummary is one endpoint's latency distribution in seconds, read
// from a log-bucketed quantile histogram (quantiles carry its documented
// ~2% relative error; Max and Mean are exact).
type LatencySummary struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int64   `json:"count"`
}

func summarize(h *obs.Histogram) LatencySummary {
	return LatencySummary{
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
		Mean:  h.Mean(),
		Count: int64(h.Count()),
	}
}

// EndpointSummary is one operator's outcome totals.
type EndpointSummary struct {
	Requests   int64          `json:"requests"`
	Errors     int64          `json:"errors"`
	Throughput float64        `json:"throughput_rps"`
	Latency    LatencySummary `json:"latency"`
}

// Report is the machine-readable result of one load run — what cmd/vitaload
// writes as JSON and what the CI SLO gate asserts on.
type Report struct {
	Mode            string  `json:"mode"`
	Seed            int64   `json:"seed"`
	Mix             string  `json:"mix"`
	Rate            float64 `json:"rate_rps,omitempty"` // open loop target
	Concurrency     int     `json:"concurrency"`
	DurationSeconds float64 `json:"duration_seconds"` // actual wall time

	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Dropped    int64   `json:"dropped,omitempty"` // open loop queue overflow
	Throughput float64 `json:"throughput_rps"`

	Overall   LatencySummary             `json:"overall"`
	Endpoints map[string]EndpointSummary `json:"endpoints"`

	// ServerDelta is the change in the server's /metricsz counters across
	// the run (present only when Options.MetricsURL was set): what the run
	// cost in blocks decoded, cache hits/misses, requests by status.
	ServerDelta map[string]float64 `json:"server_metrics_delta,omitempty"`
}

// report assembles the Report from the runner's accumulated state.
func (r *runner) report(elapsed time.Duration) *Report {
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	rep := &Report{
		Mode:            r.opts.Mode,
		Seed:            r.opts.Seed,
		Mix:             r.opts.Mix.String(),
		Concurrency:     r.opts.Concurrency,
		DurationSeconds: secs,
		Requests:        r.sent.Load(),
		Errors:          r.errs.Load(),
		Dropped:         r.dropped.Load(),
		Overall:         summarize(r.overall),
		Endpoints:       make(map[string]EndpointSummary),
	}
	if r.opts.Mode == ModeOpen {
		rep.Rate = r.opts.Rate
	}
	rep.Throughput = float64(rep.Requests) / secs
	for op, st := range r.perOp {
		n := st.requests.Load()
		if n == 0 {
			continue
		}
		rep.Endpoints[op] = EndpointSummary{
			Requests:   n,
			Errors:     st.errors.Load(),
			Throughput: float64(n) / secs,
			Latency:    summarize(st.hist),
		}
	}
	return rep
}

// CheckSLO evaluates the report against a latency/error budget and returns
// one human-readable violation per broken constraint (empty = pass).
// sloP99 <= 0 skips the latency gate; maxErrors < 0 skips the error gate.
// While any gate is active, open-loop drops also violate: a drop means the
// target rate was never actually offered, so the measured quantiles would
// understate a pass. With both gates off nothing is checked — deliberate
// overload runs are allowed to drop.
func (r *Report) CheckSLO(sloP99 time.Duration, maxErrors int64) []string {
	var v []string
	if sloP99 > 0 {
		if got := time.Duration(r.Overall.P99 * float64(time.Second)); got > sloP99 {
			v = append(v, fmt.Sprintf("overall p99 %v exceeds SLO %v", got.Round(time.Microsecond), sloP99))
		}
	}
	if maxErrors >= 0 && r.Errors > maxErrors {
		v = append(v, fmt.Sprintf("%d errors exceed budget %d", r.Errors, maxErrors))
	}
	if (sloP99 > 0 || maxErrors >= 0) && r.Dropped > 0 {
		v = append(v, fmt.Sprintf("%d requests dropped: the generator could not offer the target rate", r.Dropped))
	}
	return v
}

// WriteText renders a human-readable summary table.
func (r *Report) WriteText(w io.Writer) error {
	ms := func(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }
	if _, err := fmt.Fprintf(w, "%s loop: %d requests in %.1fs (%.1f req/s), %d errors",
		r.Mode, r.Requests, r.DurationSeconds, r.Throughput, r.Errors); err != nil {
		return err
	}
	if r.Dropped > 0 {
		if _, err := fmt.Fprintf(w, ", %d dropped", r.Dropped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n%-10s %9s %7s %10s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "p50", "p90", "p99", "p99.9", "max"); err != nil {
		return err
	}
	ops := make([]string, 0, len(r.Endpoints))
	for op := range r.Endpoints {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		e := r.Endpoints[op]
		l := e.Latency
		if _, err := fmt.Fprintf(w, "%-10s %9d %7d %10s %10s %10s %10s %10s\n",
			op, e.Requests, e.Errors, ms(l.P50), ms(l.P90), ms(l.P99), ms(l.P999), ms(l.Max)); err != nil {
			return err
		}
	}
	o := r.Overall
	_, err := fmt.Fprintf(w, "%-10s %9d %7d %10s %10s %10s %10s %10s\n",
		"overall", r.Requests, r.Errors, ms(o.P50), ms(o.P90), ms(o.P99), ms(o.P999), ms(o.Max))
	return err
}
