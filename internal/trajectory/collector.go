package trajectory

import (
	"container/heap"
	"sync"
)

// Collector merges per-object, time-sorted sample streams into one globally
// time-sorted stream without a terminal post-sort. It is the order-preserving
// funnel between sharded generation workers and the storage layer: workers
// Deliver each finished object's samples, and the collector forwards samples
// to the sink as soon as ordering is provably safe.
//
// Safety is tracked with a birth-time watermark. Every expected object is
// registered with its birth time before delivery starts; since an object's
// first sample cannot precede its birth, every buffered sample earlier than
// the minimum birth among still-pending objects can be emitted immediately.
// Ties on the timestamp are broken by ascending object ID, which makes the
// merged order identical to simulating all objects jointly on one goroutine.
//
// Deliver is safe for concurrent use; the sink is always invoked serially
// (under the collector's lock) and must not call back into the collector.
type Collector struct {
	mu   sync.Mutex
	sink func(Sample)

	// births is a lazy-deletion min-heap of the birth times of objects that
	// have not been delivered yet; delivered marks entries to skip.
	births    birthHeap
	delivered map[int]bool
	pending   int

	streams streamHeap
	emitted int
}

// NewCollector returns a collector forwarding merged samples to sink.
func NewCollector(sink func(Sample)) *Collector {
	return &Collector{sink: sink, delivered: make(map[int]bool)}
}

// Expect registers an upcoming per-object stream and its birth time. All
// Expect calls must precede the first Deliver of the run.
func (c *Collector) Expect(objID int, birth float64) {
	c.mu.Lock()
	heap.Push(&c.births, birthEntry{birth: birth, id: objID})
	c.pending++
	c.mu.Unlock()
}

// Deliver hands over the complete, time-sorted sample stream of one object
// and flushes every buffered sample that is now safely ordered.
func (c *Collector) Deliver(objID int, samples []Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delivered[objID] = true
	c.pending--
	if len(samples) > 0 {
		heap.Push(&c.streams, streamEntry{samples: samples, id: objID})
	}
	c.drain()
}

// Emitted returns how many samples have been forwarded to the sink so far.
func (c *Collector) Emitted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.emitted
}

// Close flushes everything still buffered. Call it after every expected
// object was delivered (the usual case, where it is a no-op because the last
// Deliver already drained) or when abandoning a run early.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = 0
	c.births = c.births[:0]
	c.drain()
}

// drain forwards buffered samples while they are provably next in the merged
// order. Caller holds c.mu.
func (c *Collector) drain() {
	for len(c.streams) > 0 {
		if c.pending > 0 {
			// Discard watermark entries of objects already delivered.
			for len(c.births) > 0 && c.delivered[c.births[0].id] {
				heap.Pop(&c.births)
			}
			if len(c.births) > 0 && c.streams.headT(0) >= c.births[0].birth {
				return // an undelivered object may still produce earlier samples
			}
		}
		top := &c.streams[0]
		c.sink(top.samples[top.pos])
		c.emitted++
		top.pos++
		if top.pos >= len(top.samples) {
			heap.Pop(&c.streams)
		} else {
			heap.Fix(&c.streams, 0)
		}
	}
}

type birthEntry struct {
	birth float64
	id    int
}

type birthHeap []birthEntry

func (h birthHeap) Len() int { return len(h) }
func (h birthHeap) Less(i, j int) bool {
	if h[i].birth != h[j].birth {
		return h[i].birth < h[j].birth
	}
	return h[i].id < h[j].id
}
func (h birthHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *birthHeap) Push(x interface{}) { *h = append(*h, x.(birthEntry)) }
func (h *birthHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// streamEntry is one partially consumed per-object stream, keyed by the
// timestamp of its next sample.
type streamEntry struct {
	samples []Sample
	pos     int
	id      int
}

type streamHeap []streamEntry

// headT is the timestamp of entry i's next sample, read in place.
func (h streamHeap) headT(i int) float64 { return h[i].samples[h[i].pos].T }

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if a, b := h.headT(i), h.headT(j); a != b {
		return a < b
	}
	return h[i].id < h[j].id
}
func (h streamHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x interface{}) { *h = append(*h, x.(streamEntry)) }
func (h *streamHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
