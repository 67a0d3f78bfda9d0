package serve

import (
	"container/list"
	"sync"

	"vita/internal/colstore"
)

// blockKey names one decoded block: which segment it came from and its block
// index within that segment's file. Segment IDs are never reused (the log
// reserves them monotonically; single-file datasets are segment 0 forever),
// so a key can never alias a block from a different file — which is what
// makes invalidation after compaction precise: evict the dead segment IDs,
// keep everything else warm.
type blockKey struct {
	seg   uint64
	block int
}

// BlockCache is a size-bounded LRU cache of decoded VTB blocks, keyed by
// (segment ID, block index). It holds fully decoded, unfiltered column
// batches — the shape block decode produces: about 49 B per row, with the
// string columns dictionary-coded, against 80 B per row for the equivalent
// []Sample — so one cached decode serves every predicate; callers filter
// with colstore.Predicate.SelectTrajectory into a batch of their own. Byte
// accounting is the decoded-batch footprint (colstore.TrajectoryBatch.Bytes).
// Safe for concurrent use.
type BlockCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[blockKey]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   blockKey
	batch *colstore.TrajectoryBatch
	bytes int64
}

// NewBlockCache returns a cache that holds at most maxBytes of decoded
// batches. maxBytes <= 0 disables caching: every Get misses and Put is a
// no-op.
func NewBlockCache(maxBytes int64) *BlockCache {
	return &BlockCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[blockKey]*list.Element),
	}
}

// Get returns the cached batch for a segment's block and marks it most
// recently used. The returned batch is shared — callers must not modify it.
func (c *BlockCache) Get(seg uint64, block int) (*colstore.TrajectoryBatch, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[blockKey{seg, block}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).batch, true
}

// Put inserts the decoded batch for a segment's block, evicting
// least-recently-used entries until the byte budget holds. A block larger
// than the whole budget is not cached at all.
func (c *BlockCache) Put(seg uint64, block int, batch *colstore.TrajectoryBatch) {
	size := batch.Bytes()
	key := blockKey{seg, block}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.bytes += size - el.Value.(*cacheEntry).bytes
		el.Value.(*cacheEntry).batch = batch
		el.Value.(*cacheEntry).bytes = size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, batch: batch, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// EvictSegment drops every cached block of one segment — called when the
// last reader of a segment a compaction superseded lets go of it — and
// returns how many entries were dropped. Blocks of other segments stay warm;
// these drops are invalidations, not budget pressure, so the evictions
// counter is untouched.
func (c *BlockCache) EvictSegment(seg uint64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int64
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.seg == seg {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
			dropped++
		}
		el = next
	}
	return dropped
}

// CacheStats is a point-in-time snapshot of cache effectiveness and size.
type CacheStats struct {
	Blocks    int   `json:"blocks"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Blocks:    len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// keysMRU returns the cached block keys from most to least recently used
// (test hook for eviction-order assertions).
func (c *BlockCache) keysMRU() []blockKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]blockKey, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}
