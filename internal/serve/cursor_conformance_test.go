package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vita/internal/colstore"
	"vita/internal/geom"
	"vita/internal/model"
	"vita/internal/plan"
	"vita/internal/rssi"
	"vita/internal/storage"
	"vita/internal/trajectory"
)

// TestCursorConformance holds every implementation of storage.Cursor — a VTB
// file (mmap, and pread for trajectory), a CSV file and a k-way merge, for both row kinds,
// plus plan.SliceSource and this package's blockCursor on windows of cache
// hits, of misses and of both — to the one contract:
//
//   - rows, their order and ScanStats equal a brute-force filter of the
//     written rows for a fixed predicate set (block counts follow the files'
//     zone maps, whose pruning is checked sound against the same filter);
//   - Next never yields an empty batch, and is false after Close;
//   - Close is idempotent and returns Err;
//   - a corrupt block (or CSV record) surfaces as Err, the rows before it are
//     a prefix of the answer, and stats stop at that block;
//   - PeakDecodedBytes is at least the largest decoded block, or 0 for a
//     cursor that decoded nothing.
//
// This package sits on top of every other implementation, which is why the
// suite lives here.
func TestCursorConformance(t *testing.T) {
	// Trajectory rows: time-ordered, objects interleaved within a timestamp,
	// every value exact under CSV's 4-decimal quantization so both formats
	// hold the same rows.
	var samples []trajectory.Sample
	for ts := 0; ts < 500; ts++ {
		for o := 0; o < 6; o++ {
			samples = append(samples, trajectory.Sample{
				ObjID: o,
				Loc: model.At("hq", o%2, []string{"lobby", "lab", "hall"}[o%3],
					geom.Pt(float64(ts%40), float64(o)+0.5)),
				T: float64(ts) / 2,
			})
		}
	}
	box := geom.BBox{Min: geom.Pt(10, 0), Max: geom.Pt(20, 3)}
	trajPreds := []cursorPred[trajectory.Sample]{
		{"all", colstore.Predicate{}, func(trajectory.Sample) bool { return true }},
		{"window", colstore.Predicate{HasTime: true, T0: 50, T1: 125}, func(s trajectory.Sample) bool { return s.T >= 50 && s.T <= 125 }},
		{"object", colstore.Predicate{HasObj: true, Obj: 2}, func(s trajectory.Sample) bool { return s.ObjID == 2 }},
		{"floor", colstore.Predicate{HasFloor: true, Floor: 1}, func(s trajectory.Sample) bool { return s.Loc.Floor == 1 }},
		{"box", colstore.Predicate{HasBox: true, Box: box}, func(s trajectory.Sample) bool { return box.Contains(s.Loc.Point) }},
		{"combined", colstore.Predicate{HasTime: true, T0: 20, T1: 200, HasFloor: true, Floor: 0, HasBox: true, Box: box, HasObj: true, Obj: 2},
			func(s trajectory.Sample) bool {
				return s.T >= 20 && s.T <= 200 && s.Loc.Floor == 0 && box.Contains(s.Loc.Point) && s.ObjID == 2
			}},
		{"nothing", colstore.Predicate{HasTime: true, T0: 1e6, T1: 2e6}, func(trajectory.Sample) bool { return false }},
	}
	trajKind := cursorKind[trajectory.Sample, *colstore.TrajectoryBatch]{
		kind:    storage.Trajectory,
		spatial: true,
		pread:   colstore.NewTrajectoryReader,
		vtb: func(w io.Writer) storage.RowWriter[trajectory.Sample] {
			return colstore.NewTrajectoryWriter(w, colstore.Options{BlockSize: conformanceBlock})
		},
		csv: func(w io.Writer) (storage.RowWriter[trajectory.Sample], error) {
			return storage.NewTrajectoryCSVWriter(w)
		},
		zones: func(path string) ([]colstore.ZoneMap, error) {
			r, err := colstore.OpenTrajectory(path, colstore.OpenOptions{})
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return r.Blocks(), nil
		},
		bytesOf: func(rows []trajectory.Sample) int64 {
			var b colstore.TrajectoryBatch
			for _, s := range rows {
				b.Append(s)
			}
			return b.Bytes()
		},
		less: func(a, b trajectory.Sample) bool { return a.T < b.T || (a.T == b.T && a.ObjID < b.ObjID) },
	}
	// Contiguous pieces are what internal/seglog rolls: uneven, one cut
	// through a timestamp run (equal T across inputs: the earlier input
	// wins). The interleaved pieces alternate row by row, so every merged run
	// is a single row.
	thirds := make([][]trajectory.Sample, 3)
	for i, s := range samples {
		thirds[i%3] = append(thirds[i%3], s)
	}
	trajImpls := trajKind.fileImpls(t, samples, map[string][][]trajectory.Sample{
		"merge-contiguous":  {samples[:700], samples[700:701], samples[701:1700], samples[1700:]},
		"merge-interleaved": thirds,
	})

	whole := trajKind.writeVTB(t, filepath.Join(t.TempDir(), "trajectory.vtb"), samples)
	trajImpls = append(trajImpls, cursorImpl[trajectory.Sample, *colstore.TrajectoryBatch]{
		name: "slice",
		open: func(t *testing.T, pred colstore.Predicate) storage.TrajectoryCursor {
			cur, err := plan.SliceSource{Samples: samples}.Open(pred)
			if err != nil {
				t.Fatal(err)
			}
			return cur
		},
		want: func(_ *testing.T, p cursorPred[trajectory.Sample]) ([]trajectory.Sample, colstore.ScanStats) {
			return rowsOnly(samples, p)
		},
	})
	// The serve cursor, over the same file: every window a miss (no cache),
	// every window a hit (a warmed cache), and every window some of each
	// (every other block cached). Its damaged fixture breaks the first block
	// of the second window, so the scan must stop having yielded exactly the
	// first window.
	window := decodeWindow()
	damaged := min(window, len(whole.zones)-1)
	brokenDir := t.TempDir()
	if err := os.Rename(whole.breakBlock(t, damaged), filepath.Join(brokenDir, "trajectory.vtb")); err != nil {
		t.Fatal(err)
	}
	openServe := func(t *testing.T, dir string, cfg Config, warm func(*Dataset, *segReader), pred colstore.Predicate) storage.TrajectoryCursor {
		ds, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		src, err := ds.pinSource()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(src.release)
		if warm != nil {
			warm(ds, src.set.segs[0])
		}
		cur, err := src.Open(pred)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cur.(*blockCursor); !ok {
			t.Fatalf("single-file load is a %T, want *blockCursor", cur)
		}
		return cur
	}
	cacheEvery := func(step int) func(*Dataset, *segReader) {
		return func(ds *Dataset, sg *segReader) {
			for i := 0; i < len(sg.zones); i += step {
				b, err := sg.tr.DecodeBlock(i)
				if err != nil {
					t.Fatal(err)
				}
				ds.cache.Put(sg.id, i, b)
			}
		}
	}
	for _, sv := range []struct {
		name string
		cfg  Config
		warm func(*Dataset, *segReader)
		peak int64
	}{
		{"serve-all-miss", Config{CacheBytes: -1}, nil, whole.largestBlock()},
		{"serve-all-hit", Config{}, cacheEvery(1), 0},
		{"serve-mixed", Config{}, cacheEvery(2), whole.largestBlock()},
	} {
		im := cursorImpl[trajectory.Sample, *colstore.TrajectoryBatch]{
			name: sv.name,
			open: func(t *testing.T, pred colstore.Predicate) storage.TrajectoryCursor {
				return openServe(t, filepath.Dir(whole.path), sv.cfg, sv.warm, pred)
			},
			want: whole.want,
			peak: sv.peak,
		}
		if sv.warm == nil {
			im.broken = func(t *testing.T) (storage.TrajectoryCursor, *colstore.ScanStats) {
				yielded := damaged / window * window
				return openServe(t, brokenDir, sv.cfg, nil, colstore.Predicate{}), &colstore.ScanStats{
					BlocksTotal:   len(whole.zones),
					BlocksScanned: yielded,
					RowsScanned:   yielded * conformanceBlock,
					RowsMatched:   yielded * conformanceBlock,
				}
			}
		}
		trajImpls = append(trajImpls, im)
	}
	t.Run("trajectory", func(t *testing.T) { runCursorConformance(t, trajImpls, trajPreds) })

	// RSSI rows: ascending object groups. Floor and box constraints must be
	// ignored, for pruning and for filtering alike.
	var ms []rssi.Measurement
	for o := 0; o < 6; o++ {
		for ts := 0; ts < 300; ts++ {
			ms = append(ms, rssi.Measurement{
				ObjID:    o,
				DeviceID: []string{"ap-0", "ap-1", "ap-2"}[ts%3],
				RSSI:     -40 - float64(ts%30),
				T:        float64(ts),
			})
		}
	}
	rssiPreds := []cursorPred[rssi.Measurement]{
		{"all", colstore.Predicate{}, func(rssi.Measurement) bool { return true }},
		{"window", colstore.Predicate{HasTime: true, T0: 50, T1: 120}, func(m rssi.Measurement) bool { return m.T >= 50 && m.T <= 120 }},
		{"object", colstore.Predicate{HasObj: true, Obj: 3}, func(m rssi.Measurement) bool { return m.ObjID == 3 }},
		{"spatial ignored", colstore.Predicate{HasTime: true, T0: 100, T1: 250, HasObj: true, Obj: 1,
			HasFloor: true, Floor: 99, HasBox: true, Box: geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}},
			func(m rssi.Measurement) bool { return m.T >= 100 && m.T <= 250 && m.ObjID == 1 }},
		{"nothing", colstore.Predicate{HasTime: true, T0: 1e6, T1: 2e6}, func(rssi.Measurement) bool { return false }},
	}
	rssiKind := cursorKind[rssi.Measurement, *colstore.RSSIBatch]{
		kind: storage.RSSI,
		vtb: func(w io.Writer) storage.RowWriter[rssi.Measurement] {
			return colstore.NewRSSIWriter(w, colstore.Options{BlockSize: conformanceBlock})
		},
		csv: func(w io.Writer) (storage.RowWriter[rssi.Measurement], error) { return storage.NewRSSICSVWriter(w) },
		zones: func(path string) ([]colstore.ZoneMap, error) {
			r, err := colstore.OpenRSSI(path, colstore.OpenOptions{})
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return r.Blocks(), nil
		},
		bytesOf: func(rows []rssi.Measurement) int64 {
			var b colstore.RSSIBatch
			for _, m := range rows {
				b.Append(m)
			}
			return b.Bytes()
		},
		less: func(a, b rssi.Measurement) bool { return a.ObjID < b.ObjID },
	}
	// 450 cuts object 1's group in half: the (ObjID, input index) order keeps
	// the earlier piece's rows first.
	rssiImpls := rssiKind.fileImpls(t, ms, map[string][][]rssi.Measurement{
		"merge-contiguous": {ms[:450], ms[450:900], ms[900:]},
	})
	t.Run("rssi", func(t *testing.T) { runCursorConformance(t, rssiImpls, rssiPreds) })
}

// conformanceBlock is the VTB block size of every fixture file: small, so the
// predicates prune and the files hold many blocks.
const conformanceBlock = 128

// cursorPred pairs a pushed-down predicate with its brute-force meaning.
type cursorPred[T any] struct {
	name string
	pred colstore.Predicate
	keep func(T) bool
}

// cursorImpl is one implementation under test.
type cursorImpl[T comparable, B colstore.RowBatch[T]] struct {
	name string
	// open starts a fresh cursor over the implementation's healthy fixture.
	open func(t *testing.T, pred colstore.Predicate) storage.Cursor[B]
	// want is the brute-force answer: rows in order, and the stats.
	want func(t *testing.T, p cursorPred[T]) ([]T, colstore.ScanStats)
	// peak is the footprint of the largest block a full scan decodes; 0 for
	// a cursor that decodes nothing and must say so.
	peak int64
	// broken starts a cursor, under the empty predicate, over a fixture
	// damaged part-way, and returns the stats it must stop at (nil: anywhere
	// short of the end). It is nil where the source has nothing to damage.
	broken func(t *testing.T) (storage.Cursor[B], *colstore.ScanStats)
}

func runCursorConformance[T comparable, B colstore.RowBatch[T]](t *testing.T, impls []cursorImpl[T, B], preds []cursorPred[T]) {
	drain := func(t *testing.T, cur storage.Cursor[B]) []T {
		var rows []T
		for cur.Next() {
			b := cur.Batch()
			if b.Len() == 0 {
				t.Fatal("Next yielded an empty batch")
			}
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, b.Row(i))
			}
		}
		return rows
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			for _, p := range preds {
				t.Run(p.name, func(t *testing.T) {
					want, wantStats := im.want(t, p)
					cur := im.open(t, p.pred)
					got := drain(t, cur)
					if err := cur.Err(); err != nil {
						t.Fatal(err)
					}
					if stats := cur.Stats(); stats != wantStats {
						t.Errorf("stats %+v, brute force %+v", stats, wantStats)
					}
					if len(got) != len(want) {
						t.Fatalf("%d rows, brute force %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("row %d is %+v, brute force %+v", i, got[i], want[i])
						}
					}
					if peak := cur.PeakDecodedBytes(); p.name == "all" && (peak < im.peak || (im.peak == 0 && peak != 0)) {
						t.Errorf("PeakDecodedBytes = %d, largest decoded block is %d", peak, im.peak)
					}
					for range 2 {
						if err := cur.Close(); err != nil {
							t.Fatalf("Close: %v", err)
						}
						if cur.Next() {
							t.Fatal("Next is true after Close")
						}
					}
				})
			}
			t.Run("close mid-scan", func(t *testing.T) {
				cur := im.open(t, colstore.Predicate{})
				if !cur.Next() {
					t.Fatalf("first Next: %v", cur.Err())
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				if cur.Next() {
					t.Fatal("Next is true after Close")
				}
				if err := cur.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			})
			if im.broken == nil {
				return
			}
			t.Run("corrupt", func(t *testing.T) {
				all, allStats := im.want(t, preds[0])
				cur, wantStats := im.broken(t)
				got := drain(t, cur)
				err := cur.Err()
				if err == nil {
					t.Fatal("a damaged source reported no error")
				}
				if cur.Next() {
					t.Fatal("Next is true after an error")
				}
				if len(got) >= len(all) {
					t.Fatalf("yielded %d of %d rows despite the damage", len(got), len(all))
				}
				for i := range got {
					if got[i] != all[i] {
						t.Fatalf("row %d before the damage is %+v, want %+v", i, got[i], all[i])
					}
				}
				stats := cur.Stats()
				if wantStats != nil && stats != *wantStats {
					t.Errorf("stats %+v, want the scan to stop at %+v", stats, *wantStats)
				}
				if stats.RowsScanned >= allStats.RowsScanned {
					t.Errorf("stats %+v count past the damage (healthy scan: %+v)", stats, allStats)
				}
				for range 2 {
					if cerr := cur.Close(); cerr == nil || cerr.Error() != err.Error() {
						t.Fatalf("Close = %v, want Err (%v)", cerr, err)
					}
				}
			})
		})
	}
}

// cursorKind is what the file-backed fixtures need to know of a row kind.
type cursorKind[T comparable, B colstore.RowBatch[T]] struct {
	kind    *storage.Kind[B]
	spatial bool // floor and box constraints apply
	// pread opens a VTB image held in an io.ReaderAt: the read path of
	// in-memory images, and of files where mapping fails. Only trajectory
	// images are read that way, so it is nil for RSSI.
	pread   func(r io.ReaderAt, size int64) (*colstore.Reader[B], error)
	vtb     func(io.Writer) storage.RowWriter[T]
	csv     func(io.Writer) (storage.RowWriter[T], error)
	zones   func(path string) ([]colstore.ZoneMap, error)
	bytesOf func([]T) int64
	less    func(a, b T) bool // the kind's merge order
}

// vtbFixture is one written VTB file and what was written to it.
type vtbFixture[T comparable, B colstore.RowBatch[T]] struct {
	k     *cursorKind[T, B]
	path  string
	rows  []T
	zones []colstore.ZoneMap
}

func (k *cursorKind[T, B]) writeVTB(t *testing.T, path string, rows []T) *vtbFixture[T, B] {
	t.Helper()
	var buf bytes.Buffer
	writeAll(t, k.vtb(&buf), rows)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	zones, err := k.zones(path)
	if err != nil {
		t.Fatal(err)
	}
	return &vtbFixture[T, B]{k: k, path: path, rows: rows, zones: zones}
}

// want filters the file's rows block by block: a block the zone map prunes
// must hold no matching row; every other block is scanned whole.
func (f *vtbFixture[T, B]) want(t *testing.T, p cursorPred[T]) ([]T, colstore.ScanStats) {
	pred := p.pred
	if !f.k.spatial {
		pred.HasFloor, pred.HasBox = false, false
	}
	stats := colstore.ScanStats{BlocksTotal: len(f.zones)}
	var rows []T
	for i, zm := range f.zones {
		block := f.rows[i*conformanceBlock : min((i+1)*conformanceBlock, len(f.rows))]
		var kept []T
		for _, r := range block {
			if p.keep(r) {
				kept = append(kept, r)
			}
		}
		if pred.SkipBlock(zm) {
			if len(kept) > 0 {
				t.Errorf("block %d is pruned but holds %d matching rows", i, len(kept))
			}
			stats.BlocksPruned++
			continue
		}
		stats.BlocksScanned++
		stats.RowsScanned += len(block)
		stats.RowsMatched += len(kept)
		rows = append(rows, kept...)
	}
	return rows, stats
}

// largestBlock returns the decoded footprint of the file's biggest block.
func (f *vtbFixture[T, B]) largestBlock() int64 {
	var peak int64
	for i := 0; i < len(f.rows); i += conformanceBlock {
		peak = max(peak, f.k.bytesOf(f.rows[i:min(i+conformanceBlock, len(f.rows))]))
	}
	return peak
}

// breakBlock writes a copy of the file whose block k claims to run past the
// end of the file, and returns its path.
func (f *vtbFixture[T, B]) breakBlock(t *testing.T, k int) string {
	t.Helper()
	image, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 // file header; each frame: storedLen u32 | codec u8 | rawLen u32 | payload
	for i := 0; i < k; i++ {
		off += 9 + int(binary.LittleEndian.Uint32(image[off:]))
	}
	binary.LittleEndian.PutUint32(image[off:], 0xFFFFFFFF)
	path := f.path + ".broken"
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rowsOnly is the brute-force answer of a source without block structure.
func rowsOnly[T any](rows []T, p cursorPred[T]) ([]T, colstore.ScanStats) {
	var kept []T
	for _, r := range rows {
		if p.keep(r) {
			kept = append(kept, r)
		}
	}
	return kept, colstore.ScanStats{RowsScanned: len(rows), RowsMatched: len(kept)}
}

// fileImpls writes rows as one VTB file, one CSV file and, per named split,
// a set of VTB pieces, and returns the file-backed implementations over
// them: VTB through mmap and (where the kind has it) through pread, CSV, and
// one merge per split.
func (k *cursorKind[T, B]) fileImpls(t *testing.T, rows []T, splits map[string][][]T) []cursorImpl[T, B] {
	dir := t.TempDir()
	whole := k.writeVTB(t, filepath.Join(dir, "whole.vtb"), rows)
	const damaged = 5 // the block, or CSV record, the broken fixtures damage
	brokenVTB := whole.breakBlock(t, damaged)
	type opener func(path string) func(*testing.T, colstore.Predicate) storage.Cursor[B]
	openFile := func(path string) func(*testing.T, colstore.Predicate) storage.Cursor[B] {
		return func(t *testing.T, pred colstore.Predicate) storage.Cursor[B] {
			cur, _, err := storage.OpenCursor(k.kind, path, pred, colstore.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return cur
		}
	}
	openers := map[string]opener{"vtb-mmap": openFile}
	if k.pread != nil {
		openers["vtb-pread"] = func(path string) func(*testing.T, colstore.Predicate) storage.Cursor[B] {
			return func(t *testing.T, pred colstore.Predicate) storage.Cursor[B] {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.Close() })
				st, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				r, err := k.pread(f, st.Size())
				if err != nil {
					t.Fatal(err)
				}
				return r.Cursor(pred)
			}
		}
	}
	var impls []cursorImpl[T, B]
	for name, open := range openers {
		impls = append(impls, cursorImpl[T, B]{
			name: name,
			open: open(whole.path),
			want: whole.want,
			peak: whole.largestBlock(),
			broken: func(t *testing.T) (storage.Cursor[B], *colstore.ScanStats) {
				return open(brokenVTB)(t, colstore.Predicate{}), &colstore.ScanStats{
					BlocksTotal:   len(whole.zones),
					BlocksScanned: damaged + 1, // the fetch that failed counts
					RowsScanned:   damaged * conformanceBlock,
					RowsMatched:   damaged * conformanceBlock,
				}
			},
		})
	}

	var csv bytes.Buffer
	cw, err := k.csv(&csv)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, cw, rows)
	csvPath := filepath.Join(dir, "whole.csv")
	lines := strings.SplitAfter(csv.String(), "\n")
	lines[1+damaged] = "not-a-number" + lines[1+damaged][strings.Index(lines[1+damaged], ","):]
	brokenCSV := csvPath + ".broken"
	for path, data := range map[string]string{csvPath: csv.String(), brokenCSV: strings.Join(lines, "")} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	impls = append(impls, cursorImpl[T, B]{
		name: "csv",
		open: openFile(csvPath),
		want: func(_ *testing.T, p cursorPred[T]) ([]T, colstore.ScanStats) { return rowsOnly(rows, p) },
		peak: k.bytesOf(rows[:min(len(rows), 4096)]), // one CSV batch
		broken: func(t *testing.T) (storage.Cursor[B], *colstore.ScanStats) {
			return openFile(brokenCSV)(t, colstore.Predicate{}),
				&colstore.ScanStats{RowsScanned: damaged, RowsMatched: damaged}
		},
	})

	for name, pieces := range splits {
		var parts []*vtbFixture[T, B]
		var paths []string
		var peak int64
		for i, piece := range pieces {
			parts = append(parts, k.writeVTB(t, filepath.Join(dir, name+"-"+string(rune('a'+i))+".vtb"), piece))
			paths = append(paths, parts[i].path)
			peak = max(peak, parts[i].largestBlock())
		}
		openMulti := func(t *testing.T, paths []string, pred colstore.Predicate) storage.Cursor[B] {
			cur, err := storage.OpenCursorMulti(k.kind, paths, pred, colstore.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return cur
		}
		impls = append(impls, cursorImpl[T, B]{
			name: name,
			open: func(t *testing.T, pred colstore.Predicate) storage.Cursor[B] { return openMulti(t, paths, pred) },
			// The merged order is a stable sort of the pieces, concatenated
			// in input order, by the kind's key.
			want: func(t *testing.T, p cursorPred[T]) ([]T, colstore.ScanStats) {
				var rows []T
				var stats colstore.ScanStats
				for _, part := range parts {
					r, st := part.want(t, p)
					rows, stats = append(rows, r...), stats.Add(st)
				}
				sort.SliceStable(rows, func(i, j int) bool { return k.less(rows[i], rows[j]) })
				return rows, stats
			},
			peak: peak,
			broken: func(t *testing.T) (storage.Cursor[B], *colstore.ScanStats) {
				last := len(parts) - 1
				damagedPaths := append([]string{}, paths...)
				damagedPaths[last] = parts[last].breakBlock(t, 1)
				return openMulti(t, damagedPaths, colstore.Predicate{}), nil
			},
		})
	}
	return impls
}

func writeAll[T any](t testing.TB, w storage.RowWriter[T], rows []T) {
	t.Helper()
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
