package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the mean of the two middle values for an even count, so two
// reps still report something between them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quietFast and quietSlow pick the rep a run reports, out of one value per
// rep: the favourable quartile. The sandbox's noise is one-sided — a busy
// host only ever slows a rep, by up to a third and for minutes at a time —
// so the fast quartile is the best estimate of the system's own speed that
// still discards the luckiest reps, and it moves far less from run to run
// than the median rep does (README, "Noise").
func quietFast(perRep []float64) float64 { return quantile(slices.Clone(perRep), 0.75) } // throughputs
func quietSlow(perRep []float64) float64 { return quantile(slices.Clone(perRep), 0.25) } // times

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer that did nothing has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mb = 1 << 20

func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// settleHeap returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, so peak RSS measures the phase that follows
// and not the set-up before it. Where the kernel refuses the reset the mark
// simply keeps covering set-up too — on both sides of any comparison.
func settleHeap() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the resident-set high-water mark (VmHWM) in bytes; 0 when
// the platform has no /proc.
func peakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// goCounters is a snapshot of the runtime's allocation and GC CPU counters.
type goCounters struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readGoCounters() goCounters {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return goCounters{
		allocBytes: samples[0].Value.Uint64(),
		allocs:     samples[1].Value.Uint64(),
		gcCPU:      samples[2].Value.Float64(),
		totalCPU:   samples[3].Value.Float64(),
	}
}

// since fills the go.* metrics for ops operations done after the snapshot.
func (c goCounters) since(out map[string]float64, ops int) {
	now := readGoCounters()
	out["go.alloc_kb_per_op"] = ratio(float64(now.allocBytes-c.allocBytes)/1024, float64(ops))
	out["go.allocs_per_op"] = ratio(float64(now.allocs-c.allocs), float64(ops))
	out["go.gc_cpu_frac"] = ratio(now.gcCPU-c.gcCPU, now.totalCPU-c.totalCPU)
}
