package serve

import (
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/trajectory"
)

// batchOfSize builds a decoded batch of n rows with empty strings, so its
// Bytes() is exactly n*batchRowBytes.
func batchOfSize(n int) *colstore.TrajectoryBatch {
	b := &colstore.TrajectoryBatch{}
	for i := 0; i < n; i++ {
		b.Append(trajectory.Sample{ObjID: i, T: float64(i),
			Loc: model.Location{Point: geom.Pt(1, 2), HasPoint: true}})
	}
	return b
}

// batchRowBytes is the per-row column footprint batchOfSize produces.
var batchRowBytes = batchOfSize(1).Bytes()

func TestBlockCacheEvictionOrder(t *testing.T) {
	// Budget holds exactly three one-row blocks.
	c := NewBlockCache(3 * batchRowBytes)
	for i := 0; i < 3; i++ {
		c.Put(0, i, batchOfSize(1))
	}
	if got := c.keysMRU(); len(got) != 3 || got[0].block != 2 || got[2].block != 0 {
		t.Fatalf("MRU order after fills: %v", got)
	}
	// Touch block 0: it becomes most recent, so block 1 is now LRU.
	if _, ok := c.Get(0, 0); !ok {
		t.Fatal("block 0 missing")
	}
	c.Put(0, 3, batchOfSize(1))
	if _, ok := c.Get(0, 1); ok {
		t.Error("block 1 survived eviction despite being LRU")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := c.Get(0, want); !ok {
			t.Errorf("%v evicted, want resident", want)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", st.Blocks)
	}
}

func TestBlockCacheByteAccounting(t *testing.T) {
	c := NewBlockCache(1 << 20)
	b := &colstore.TrajectoryBatch{}
	b.Append(trajectory.Sample{ObjID: 1, Loc: model.At("building", 0, "lobby", geom.Pt(1, 2)), T: 3})
	b.Append(trajectory.Sample{ObjID: 2, Loc: model.AtPartition("b", 1, "p")})
	want := 2*batchRowBytes + int64(len("building")+len("lobby")+len("b")+len("p"))
	if got := b.Bytes(); got != want {
		t.Fatalf("batch Bytes = %d, want %d", got, want)
	}
	c.Put(0, 0, b)
	c.Put(0, 1, batchOfSize(4))
	if st := c.Stats(); st.Bytes != want+4*batchRowBytes {
		t.Errorf("cache bytes = %d, want %d", st.Bytes, want+4*batchRowBytes)
	}
	// Replacing a key adjusts the account instead of double counting.
	c.Put(0, 0, batchOfSize(1))
	if st := c.Stats(); st.Bytes != 5*batchRowBytes {
		t.Errorf("cache bytes after replace = %d, want %d", st.Bytes, 5*batchRowBytes)
	}
}

func TestBlockCacheOversizedBlock(t *testing.T) {
	c := NewBlockCache(2 * batchRowBytes)
	c.Put(0, 0, batchOfSize(10)) // larger than the whole budget
	if st := c.Stats(); st.Blocks != 0 || st.Bytes != 0 {
		t.Errorf("oversized block was cached: %+v", st)
	}
	// A fitting block still works afterwards.
	c.Put(0, 1, batchOfSize(1))
	if _, ok := c.Get(0, 1); !ok {
		t.Error("fitting block not cached")
	}
}

func TestBlockCacheHitMissCounters(t *testing.T) {
	c := NewBlockCache(1 << 20)
	if _, ok := c.Get(0, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, 0, batchOfSize(1))
	c.Get(0, 0)
	c.Get(0, 0)
	c.Get(0, 9)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
}
