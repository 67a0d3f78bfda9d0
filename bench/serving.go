package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vita/internal/obs"
	"vita/internal/serve"
)

// loopResult is one replay of a request list.
type loopResult struct {
	wall   time.Duration
	lat    []time.Duration // by list index
	failed int
	first  error // first failure, for the report
}

func (l *loopResult) fail(err error) {
	l.failed++
	if l.first == nil {
		l.first = err
	}
}

// closedLoop replays list with n clients; each sends its next request only
// when the previous one has returned. after, when set, sees every answer
// outside the timed interval of its request; an error from it counts as a
// failed operation, like an error from the request itself.
func closedLoop(q querier, list []request, n int, after func(i int, a answer) error) loopResult {
	res := loopResult{lat: make([]time.Duration, len(list))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				t := time.Now()
				a, err := issue(q, &list[i], false)
				res.lat[i] = time.Since(t)
				if err == nil && after != nil {
					err = after(i, a)
				}
				if err != nil {
					mu.Lock()
					res.fail(fmt.Errorf("request %d (%s): %w", i, opNames[list[i].op], err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// httpShell is the in-process HTTP server and loopback client of http_hot.
type httpShell struct {
	srv    *serve.Server
	client *serve.Client
	done   chan error
}

func startHTTP(ds *serve.Dataset) (*httpShell, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpShell{srv: serve.NewServer(ds), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(l) }()
	h.client = serve.NewClient("http://"+l.Addr().String(), serve.ClientOptions{MaxIdleConnsPerHost: clients})
	return h, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (h *httpShell) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.client.HTTP.CloseIdleConnections()
	return errors.Join(h.srv.Shutdown(ctx), <-h.done)
}

// handlerTransport serves a serve.Client's requests by calling the server's
// handler directly into an in-memory recorder: the whole HTTP shell, minus
// the socket. It times only the ServeHTTP call.
type handlerTransport struct {
	h     http.Handler
	spent time.Duration
	bytes int64
}

func (t *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.spent += time.Since(start)
	t.bytes += int64(w.Body.Len())
	return w.Result(), nil
}

// servingRun is the state a serving workload's measuring phases share: the
// opened dataset, the path requests take, the list, and what the checked
// warm-up pass learned about each answer.
type servingRun struct {
	cfg    runConfig
	res    *result
	sv     *served
	nRows  int
	target querier    // what the closed loop talks to: the Dataset, or the Client for http
	shell  *httpShell // http workloads only
	list   []request  // warm-up prefix + timed list
	timed  []request
	cards  []int // each timed answer's cardinality in the checked pass
}

// sameRows is the timed phases' correctness check: every replay of request
// i must return as many rows as the answer the warm-up pass verified.
func (s *servingRun) sameRows(i int, a answer) error {
	if a.rows != s.cards[i] {
		return fmt.Errorf("returned %d rows, the checked pass returned %d", a.rows, s.cards[i])
	}
	return nil
}

// runServing runs one serving workload and returns its result.
func runServing(cfg runConfig) (*result, error) {
	w := cfg.workload
	s := &servingRun{cfg: cfg, res: newResult(cfg)}
	profileName, nReq, nWarm := "scale", w.requests, w.warm
	if cfg.quick {
		profileName, nReq, nWarm = "quick", max(w.requests/20, 40), w.warm/10
	}
	p, err := loadProfile(profileName, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := cfg.dataDir()
	defer removeAll(dir)

	if s.sv, err = setUp(p, dir, cfg.setups(servingSetups)); err != nil {
		return nil, err
	}
	defer s.sv.ds.Close()
	if s.nRows = len(s.sv.rows); s.nRows == 0 {
		return nil, fmt.Errorf("%s: profile %s generated no rows", w.name, profileName)
	}
	s.list = generateRequests(w, s.sv.shape, cfg.seed, nWarm+nReq)
	s.timed = s.list[nWarm:]

	s.target = s.sv.ds
	if w.http {
		if s.shell, err = startHTTP(s.sv.ds); err != nil {
			return nil, err
		}
		s.target = s.shell.client
	}

	s.warmAndCheck(nWarm)
	s.sv.rows = nil
	settleHeap()

	if cfg.trace {
		err = s.measureLayers()
	} else {
		s.measureEndToEnd()
	}
	if s.shell != nil {
		err = errors.Join(err, s.shell.stop())
	}
	return s.res, err
}

// warmAndCheck is the warm-up pass, doubling as the correctness pass: it
// fills the caches, digests every answer, checks a sample against the
// brute-force oracle and remembers each answer's cardinality.
func (s *servingRun) warmAndCheck(nWarm int) {
	orc := oracle{rows: s.sv.rows, sorted: s.sv.sorted}
	digests := make([]digest, len(s.list))
	cards := make([]int, len(s.list))
	var checked [numOps]atomic.Int64
	warm := closedLoop(s.target, s.list, clients, func(i int, a answer) error {
		d, err := digestOf(a)
		if err != nil {
			return err
		}
		digests[i], cards[i] = d, a.rows
		if op := s.list[i].op; (op == opRange || op == opTraj) && checked[op].Add(1) <= oracleChecks {
			return orc.check(&s.list[i], a)
		}
		return nil
	})
	s.cards = cards[nWarm:]
	s.res.absorb(len(s.list), warm)
	s.res.Digests = rollUp(s.list, digests)
	s.res.attempt(1)
	if err := checkGolden(s.cfg.workload.name, s.cfg.seed, s.cfg.quick, s.res.Digests); err != nil {
		s.res.failure(err)
	}
	if s.cfg.workload.http {
		n, failed := checkParity(s.sv.ds, s.shell.client, s.sv.shape, s.cfg.seed)
		s.res.attempt(n)
		for _, err := range failed {
			s.res.failure(err)
		}
	}
}

// measureEndToEnd replays the timed list, tracing off, until the measuring
// time is used up. Each rep yields one throughput, one median and one tail;
// the run reports the favourable-quartile rep of each (see quietFast).
func (s *servingRun) measureEndToEnd() {
	w := s.cfg.workload
	var qps, p50, tail []float64
	start := time.Now()
	for rep := 0; !s.cfg.enough(rep, w.minReps, time.Since(start)); rep++ {
		r := closedLoop(s.target, s.timed, clients, s.sameRows)
		s.res.absorb(len(s.timed), r)
		lat := make([]float64, len(r.lat))
		for i, d := range r.lat {
			lat[i] = ms(d)
		}
		qps = append(qps, float64(len(s.timed)-r.failed)/r.wall.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		tail = append(tail, quantile(lat, w.tailQ))
	}
	m, notes := s.res.Metrics, s.res.Notes
	m["setup_s"] = median(seconds(s.sv.setup))
	m["ops_per_s"] = quietFast(qps)
	m["p50_ms"] = quietSlow(p50)
	m["tail_ms"] = quietSlow(tail)
	m["peak_rss_mb"] = float64(peakRSS()) / mb
	m["bytes_per_row"] = float64(s.sv.bytes) / float64(s.nRows)
	notes["reps"] = len(qps)
	notes["latency_samples_per_rep"] = len(s.timed)
	notes["tail_quantile"] = w.tailQ
	notes["ops_per_s_reps"] = qps
	notes["tail_ms_reps"] = tail
	notes["setup_s_passes"] = seconds(s.sv.setup)
	notes["rows"] = s.nRows
}

// measureLayers fills the per-layer ledger: one closed-loop rep for the
// per-operator view, then single-client passes over the list's prefix.
func (s *servingRun) measureLayers() error {
	w := s.cfg.workload
	m := s.res.Metrics
	before := readGoCounters()
	r := closedLoop(s.target, s.timed, clients, s.sameRows)
	before.since(m, len(s.timed))
	s.res.absorb(len(s.timed), r)
	var byOp [numOps][]float64
	for i, d := range r.lat {
		byOp[s.timed[i].op] = append(byOp[s.timed[i].op], ms(d))
	}
	for op, lat := range byOp {
		m["op."+opNames[op]+".p50_ms"] = quantile(lat, 0.5)
		m["op."+opNames[op]+".p90_ms"] = quantile(lat, 0.9)
	}

	prefix := s.timed[:min(tracedPrefix, len(s.timed))]
	n := float64(len(prefix))
	ds := s.sv.ds

	// Single client from here on, so the cache state each pass starts from
	// is a function of the list alone and the counts repeat. The traced pass
	// sits between two untraced ones: their mean cancels whatever the
	// process is still drifting by (heap growth, warming caches).
	untraced := func() float64 {
		r := closedLoop(ds, prefix, 1, s.sameRows)
		s.res.absorb(len(prefix), r)
		return ms(r.wall) / n
	}
	u1 := untraced()
	rec := newRecorder()
	tp := tracedPass(ds, prefix, rec, s.sameRows)
	s.res.absorb(len(prefix), tp.loop)
	exec := (u1 + untraced()) / 2
	tp.fill(m, rec, n)
	m["serve.exec_ms"] = exec
	m["obs.trace_overhead_frac"] = ratio(ms(tp.loop.wall)/n-exec, exec)
	m["serve.open_ms"] = ms(s.sv.openTime)

	if w.http {
		tw := threeWays(ds, s.shell, prefix, s.sameRows)
		s.res.absorb(3*len(prefix), tw.loop)
		tw.fill(m, n)

		nOpen := int(openRate * openSeconds)
		if s.cfg.quick {
			nOpen = 20
		}
		ol := openLoop(s.shell.client, s.list[:min(nOpen, len(s.list))], openRate, clients)
		s.res.absorb(len(ol.loop.lat), ol.loop)
		ol.fill(m)
	}
	return rec.write(filepath.Join(s.cfg.outDir(), "trace-"+w.name+".json"), w.name, s.cfg.seed)
}

// threeWayResult is the HTTP shell's ledger: the same requests answered by
// the Dataset, by the server's handler in memory, and by the Client over
// loopback.
type threeWayResult struct {
	loop                  loopResult
	exec, handler, client time.Duration
	respBytes             int64
}

// threeWayChunk is how many consecutive requests one way answers before the
// next way takes its turn on the same requests.
const threeWayChunk = 20

// threeWays answers the list three ways, a chunk of requests at a time,
// rotating which way goes first. Chunks are short enough that all three ways
// see the same process state (heap size, warmth), so their difference is the
// layers' and not the minute's; and long enough that a way never finds the
// previous way's request still in the CPU cache. Tracing is off throughout.
func threeWays(ds *serve.Dataset, shell *httpShell, list []request, check func(int, answer) error) threeWayResult {
	var res threeWayResult
	ht := &handlerTransport{h: shell.srv.Handler()}
	viaHandler := &serve.Client{Base: "http://handler.invalid", HTTP: &http.Client{Transport: ht}}
	ways := [3]querier{ds, viaHandler, shell.client}
	var spent [3]time.Duration
	for lo, turn := 0, 0; lo < len(list); lo, turn = lo+threeWayChunk, turn+1 {
		hi := min(lo+threeWayChunk, len(list))
		for k := range ways {
			way := (turn + k) % len(ways)
			for i := lo; i < hi; i++ {
				t := time.Now()
				a, err := issue(ways[way], &list[i], false)
				spent[way] += time.Since(t)
				if err == nil {
					err = check(i, a)
				}
				if err != nil {
					res.loop.fail(fmt.Errorf("request %d (%s) way %d: %w", i, opNames[list[i].op], way, err))
				}
			}
		}
	}
	// The handler's time is what ServeHTTP took; the in-memory client's own
	// encode and decode around it belong to no layer being measured.
	res.exec, res.handler, res.client = spent[0], ht.spent, spent[2]
	res.respBytes = ht.bytes
	return res
}

func (t threeWayResult) fill(m map[string]float64, n float64) {
	exec, handler, client := ms(t.exec)/n, ms(t.handler)/n, ms(t.client)/n
	m["serve.exec_ms"] = exec // replaces the plain passes' figure, so the three ways compare like with like
	m["serve.handler_ms"] = handler
	m["serve.client_ms"] = client
	m["serve.http_shell_ms"] = handler - exec
	m["serve.transport_ms"] = client - handler
	m["serve.http_share"] = ratio(client-exec, client)
	m["serve.resp_bytes"] = float64(t.respBytes) / n
}

// checkParity answers parityChecks requests of every operator through both
// the Dataset and the Client and requires byte-identical bodies.
func checkParity(ds *serve.Dataset, client *serve.Client, sh shape, seed uint64) (n int, failed []error) {
	for op := range numOps {
		w := workload{name: "parity-" + opNames[op], lo: 0.40, hi: 0.55}
		w.mix[op] = 1
		for i, r := range generateRequests(w, sh, seed, parityChecks) {
			n++
			local, err := issue(ds, &r, false)
			if err != nil {
				failed = append(failed, fmt.Errorf("parity %s %d: dataset: %w", opNames[op], i, err))
				continue
			}
			remote, err := issue(client, &r, false)
			if err != nil {
				failed = append(failed, fmt.Errorf("parity %s %d: client: %w", opNames[op], i, err))
				continue
			}
			a, errA := json.Marshal(local.body)
			b, errB := json.Marshal(remote.body)
			if errA != nil || errB != nil || string(a) != string(b) {
				failed = append(failed, fmt.Errorf("parity %s %d: Dataset and Client bodies differ (%d vs %d bytes)", opNames[op], i, len(a), len(b)))
			}
		}
	}
	return n, failed
}

// tracedResult accumulates what the traced single-client pass observed.
type tracedResult struct {
	loop loopResult

	execNs       int64 // sum of the system's root spans
	resultRows   int
	indexedRows  int
	blocksRead   int
	blocksMissed int
	blocksPruned int
	rowsScanned  int
	segments     int
	coldScanNs   int64 // Scan-span wall on requests whose every block was a miss
	coldBlocks   int
	cacheBefore  serve.CacheStats
	cacheAfter   serve.CacheStats
}

// tracedPass issues each request once with Trace:true on the Dataset, under
// a bench span, and grafts the returned span tree beneath it.
func tracedPass(ds *serve.Dataset, list []request, rec *recorder, check func(int, answer) error) *tracedResult {
	tr := &tracedResult{cacheBefore: ds.CacheStats()}
	tr.loop.lat = make([]time.Duration, len(list))
	start := time.Now()
	for i := range list {
		t := time.Now()
		id := rec.begin(spanExec, -1, i)
		a, err := issue(ds, &list[i], true)
		rec.end(id)
		tr.loop.lat[i] = time.Since(t)
		if err == nil {
			err = check(i, a)
		}
		if err == nil && a.trace == nil {
			err = errors.New("asked for a trace, got none")
		}
		if err != nil {
			tr.loop.fail(fmt.Errorf("traced request %d (%s): %w", i, opNames[list[i].op], err))
			continue
		}
		rec.graft(a.trace, id, i)
		tr.execNs += a.trace.WallNanos
		tr.resultRows += a.rows
		tr.blocksRead += a.stats.Scan.BlocksScanned
		tr.blocksMissed += a.stats.CacheMisses
		tr.blocksPruned += a.stats.Scan.BlocksPruned
		tr.rowsScanned += a.stats.Scan.RowsScanned
		tr.segments = max(tr.segments, a.stats.Segments)
		scanNs, indexed := walkTrace(a.trace)
		tr.indexedRows += indexed
		if a.stats.CacheHits == 0 && a.stats.CacheMisses > 0 {
			tr.coldScanNs += scanNs
			tr.coldBlocks += a.stats.CacheMisses
		}
	}
	tr.loop.wall = time.Since(start)
	tr.cacheAfter = ds.CacheStats()
	return tr
}

// walkTrace sums the Scan spans' wall time and the rows fed to IndexBuild.
func walkTrace(t *obs.Span) (scanNs int64, indexedRows int) {
	switch t.Op {
	case "Scan":
		scanNs += t.WallNanos
	case "IndexBuild":
		indexedRows += t.Rows
	}
	for _, c := range t.Children {
		s, r := walkTrace(c)
		scanNs += s
		indexedRows += r
	}
	return scanNs, indexedRows
}

// fill writes the per-layer metrics the traced pass determines; times are
// means per request in ms.
func (tr *tracedResult) fill(m map[string]float64, rec *recorder, n float64) {
	const nsPerMs = 1e6
	var planNs int64
	for key, ns := range foldSelf(rec.spans) {
		m[key] = float64(ns) / nsPerMs / n
		if len(key) > 5 && key[:5] == "plan." {
			planNs += ns
		}
	}
	exec := float64(tr.execNs)
	m["plan.exec_share"] = ratio(float64(planNs), exec)
	m["query.index_build_share"] = ratio(m["query.index_build_ms"]*nsPerMs*n, exec)
	m["query.index_rows_per_result"] = ratio(float64(tr.indexedRows), float64(tr.resultRows))
	m["plan.rows_scanned_per_result"] = ratio(float64(tr.rowsScanned), float64(tr.resultRows))
	m["colstore.blocks_read"] = float64(tr.blocksRead)
	m["colstore.blocks_decoded"] = float64(tr.blocksMissed)
	m["colstore.blocks_pruned"] = float64(tr.blocksPruned)
	m["colstore.prune_ratio"] = ratio(float64(tr.blocksPruned), float64(tr.blocksPruned+tr.blocksRead))
	m["colstore.rows_scanned"] = float64(tr.rowsScanned)
	m["colstore.decode_us_per_block"] = ratio(float64(tr.coldScanNs)/1e3, float64(tr.coldBlocks))
	hits := float64(tr.cacheAfter.Hits - tr.cacheBefore.Hits)
	misses := float64(tr.cacheAfter.Misses - tr.cacheBefore.Misses)
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.cache_misses"] = misses
	m["serve.cache_evictions"] = float64(tr.cacheAfter.Evictions - tr.cacheBefore.Evictions)
	m["serve.cache_mb"] = float64(tr.cacheAfter.Bytes) / mb
	m["serve.segments"] = float64(tr.segments)
}

// openResult is the open-loop diagnostics phase.
type openResult struct {
	loop    loopResult // lat is measured from each request's due time
	late    []time.Duration
	backlog int // requests not yet sent when the last one fell due
}

// openLoop sends list on a fixed schedule — request i falls due at i/rate —
// whatever the system's pace. Nothing is dropped: a request that finds all
// n connections busy is sent late, and its latency counts from when it was
// due, so a stall shows up in every request it delayed.
func openLoop(q querier, list []request, rate float64, n int) openResult {
	res := openResult{late: make([]time.Duration, len(list))}
	res.loop.lat = make([]time.Duration, len(list))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	lastDue := due(len(list) - 1)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				time.Sleep(time.Until(due(i)))
				sent := time.Now()
				_, err := issue(q, &list[i], false)
				res.loop.lat[i] = time.Since(due(i))
				res.late[i] = sent.Sub(due(i))
				mu.Lock()
				if sent.After(lastDue) && i < len(list)-1 {
					res.backlog++
				}
				if err != nil {
					res.loop.fail(fmt.Errorf("open-loop request %d (%s): %w", i, opNames[list[i].op], err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.loop.wall = time.Since(start)
	return res
}

func (o openResult) fill(m map[string]float64) {
	lat := make([]float64, len(o.loop.lat))
	late := make([]float64, len(o.late))
	for i := range lat {
		lat[i], late[i] = ms(o.loop.lat[i]), ms(o.late[i])
	}
	m["load.open_p50_ms"] = quantile(lat, 0.5)
	m["load.open_p99_ms"] = quantile(lat, 0.99)
	m["load.late_p99_ms"] = quantile(late, 0.99)
	m["load.backlog_end"] = float64(o.backlog)
}
