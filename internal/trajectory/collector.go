package trajectory

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
)

// mergeBatch is the most samples the Collector hands its emit function in one
// call. It is a fraction of a VTB block: large enough that a sink's lock is
// taken once per hundreds of rows, small enough that the first rows reach the
// sink a fraction of a millisecond after the watermark releases them.
const mergeBatch = 512

// Collector merges per-object, time-sorted sample streams into one globally
// time-sorted stream without a terminal post-sort. It is the order-preserving
// funnel between sharded generation workers and the storage layer: workers
// Deliver each finished object's samples, and the collector forwards samples
// to emit as soon as ordering is provably safe.
//
// Safety is tracked with a birth-time watermark. The collector knows the
// roster's births, in roster order, which is ascending birth order; since an
// object's first sample cannot precede its birth, every buffered sample
// earlier than the birth of the first roster slot not yet delivered can be
// emitted immediately. Ties on the timestamp are broken by ascending slot,
// that is ascending object ID, which makes the merged order identical to
// simulating all objects jointly on one goroutine.
//
// The merge runs on the collector's own goroutine, which owns the heap.
// Deliver only queues a series and returns, so a simulating worker never
// waits for the merge; each time series arrive the goroutine drains as far as
// the watermark allows, handing emit runs of at most mergeBatch samples. emit
// is called on that goroutine, never concurrently, and must not keep the
// slice it is given. Once emit returns an error the collector emits nothing
// more and drops whatever it buffers. Close waits for the merge to finish.
type Collector struct {
	emit   func([]Sample) error
	births []float64 // births[i] is roster slot i's, ascending

	mu     sync.Mutex
	inbox  []streamEntry // delivered series the merge has not taken yet
	closed bool
	wake   chan struct{} // capacity 1: series arrived, or Close was called
	done   chan struct{} // closed when the merge goroutine exits

	// Owned by the merge goroutine. next is the first roster slot not yet
	// delivered: births[next] is the watermark.
	arrived []bool
	next    int
	streams streamHeap
	batch   []Sample
	err     error
}

// NewCollector starts a collector for a roster whose slot i is born at
// births[i], forwarding merged samples to emit. births must be ascending.
// The caller must Close the collector.
func NewCollector(births []float64, emit func([]Sample) error) (*Collector, error) {
	if !slices.IsSorted(births) {
		return nil, fmt.Errorf("trajectory: collector births are not in ascending order")
	}
	c := &Collector{
		emit:    emit,
		births:  births,
		arrived: make([]bool, len(births)),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go c.merge()
	return c, nil
}

// Deliver hands over the complete, time-sorted sample stream of roster slot
// slot (possibly empty) and returns without waiting for the merge. The
// collector reads samples until Close returns; the caller must not modify
// them.
func (c *Collector) Deliver(slot int, samples []Sample) {
	c.mu.Lock()
	c.inbox = append(c.inbox, streamEntry{samples: samples, slot: slot})
	c.mu.Unlock()
	c.signal()
}

// Close waits until every delivered sample has been emitted and stops the
// merge goroutine. It returns emit's first error. Call it after every
// roster slot was delivered, or to abandon a run early: slots still pending
// then no longer hold the watermark back, and everything buffered is
// emitted. Deliver must not be called after Close.
func (c *Collector) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.signal()
	<-c.done
	return c.err
}

func (c *Collector) signal() {
	select {
	case c.wake <- struct{}{}:
	default: // a wake-up is already pending; it will see this change too
	}
}

// merge is the collector's goroutine: it takes delivered series in, drains,
// and exits once Close was called and everything was taken.
func (c *Collector) merge() {
	defer close(c.done)
	var in []streamEntry
	for range c.wake {
		c.mu.Lock()
		in, c.inbox = c.inbox, in[:0]
		closed := c.closed
		c.mu.Unlock()
		for _, d := range in {
			c.arrived[d.slot] = true
			if len(d.samples) > 0 && c.err == nil {
				heap.Push(&c.streams, d)
			}
		}
		clear(in)
		for c.next < len(c.arrived) && c.arrived[c.next] {
			c.next++
		}
		if closed {
			c.next = len(c.births)
		}
		c.drain()
		if closed {
			return
		}
	}
}

// drain emits buffered samples while they are provably next in the merged
// order.
func (c *Collector) drain() {
	for len(c.streams) > 0 {
		if c.next < len(c.births) && c.streams.headT(0) >= c.births[c.next] {
			break // an undelivered object may still produce earlier samples
		}
		top := &c.streams[0]
		c.batch = append(c.batch, top.samples[top.pos])
		top.pos++
		if top.pos >= len(top.samples) {
			heap.Pop(&c.streams)
		} else {
			c.streams.fixTop()
		}
		if len(c.batch) == mergeBatch {
			c.flush()
		}
	}
	c.flush()
}

// flush hands the batch to emit; after a failure it drops every buffered
// stream instead.
func (c *Collector) flush() {
	if len(c.batch) > 0 && c.err == nil {
		c.err = c.emit(c.batch)
	}
	c.batch = c.batch[:0]
	if c.err != nil {
		clear(c.streams)
		c.streams = c.streams[:0]
	}
}

// streamEntry is one partially consumed per-object stream, keyed by the
// timestamp of its next sample.
type streamEntry struct {
	samples []Sample
	pos     int
	slot    int
}

type streamHeap []streamEntry

// headT is the timestamp of entry i's next sample, read in place.
func (h streamHeap) headT(i int) float64 { return h[i].samples[h[i].pos].T }

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if a, b := h.headT(i), h.headT(j); a != b {
		return a < b
	}
	return h[i].slot < h[j].slot
}
func (h streamHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x interface{}) { *h = append(*h, x.(streamEntry)) }

// fixTop restores the heap order after the top entry advanced: heap.Fix(h,
// 0) without its interface calls, since the merge makes one per sample.
func (h streamHeap) fixTop() {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.Less(r, j) {
			j = r
		}
		if !h.Less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
func (h *streamHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
