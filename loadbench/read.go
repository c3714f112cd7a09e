package main

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/card"
)

// End-to-end metrics of the read workloads that go into the JSON line.
// fail_frac is reported on a '#' line; the JSON carries it as
// failed/attempted.
var readEndToEnd = []string{
	"setup_s", "query_p50_ms", "query_p99_ms", "query_qps", "allocs_per_query",
	"alloc_bytes_per_query", "card_ms_per_query", "dsp_kb_per_query", "live_heap_mb",
}

// Per-layer metrics of the read workloads.
var readPerLayer = []string{
	"xmlstream.render_ms", "xmlstream.render_alloc_kb", "gateway.resp_kb_per_query", "gateway.self_ms",
	"fleet.query_ms", "fleet.compute_ms", "fleet.query_allocs", "fleet.session_reuse", "fleet.version_refreshes",
	"dsp.header_ms", "dsp.read_ms", "dsp.reads_per_query", "dsp.read_share", "dsp.cache_hit_ratio",
	"dsp.cache_evictions_per_query", "dsp.frame_read_share", "dsp.mmap_reads_per_query",
	"dsp.heap_reads_per_query", "dsp.sendfile_byte_share",
	"proxy.skip_ratio", "proxy.waste_ratio", "proxy.blocks_fetched_per_query",
	"card.crypto_kb_per_query", "card.events_per_query", "card.transfer_ms", "card.crypto_ms", "card.evaluate_ms",
	"soe.ram_peak_bytes", "trace.overhead_pct",
}

// readRun is a read workload's deployment, clients and oracle.
type readRun struct {
	cfg     config
	c       *corpus
	rig     *rig
	tr      *tracer
	clients []*client
	want    map[viewKey]uint64
	setup   []float64
}

// runRead runs folder-view or select-cold.
func runRead(cfg config, c *corpus, dir string) (*result, error) {
	rr, err := startRead(cfg, c, dir)
	if err != nil {
		return nil, err
	}
	defer rr.close()
	res := rr.header()
	if cfg.trace {
		err = rr.traced(res)
	} else {
		rr.untraced(res)
	}
	return res, err
}

// startRead builds the deployment, computes the oracle, connects the
// clients and warms everything up.
func startRead(cfg config, c *corpus, dir string) (rr *readRun, err error) {
	rr = &readRun{cfg: cfg, c: c}
	owner := make(map[string]int)
	for f := range c.folders {
		owner[docID(f)] = f % cfg.clients
	}
	if cfg.trace {
		rr.tr = newTracer(cfg.clients, owner)
	}
	if rr.rig, rr.setup, err = setupRigs(cfg.setups, dir, c, cfg.spec, rr.tr); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			rr.close()
		}
	}()

	// The oracle is computed outside set-up and the timed phase.
	rr.want = make(map[viewKey]uint64)
	for slot := 0; slot < cfg.clients; slot++ {
		var mine []int
		for f := slot; f < len(c.folders); f += cfg.clients {
			mine = append(mine, f)
		}
		reqs := c.requestsOf(mine)
		for _, r := range reqs {
			xml, err := c.expectedView(c.folders[r.folder], r)
			if err != nil {
				return nil, err
			}
			rr.want[viewKey{r, rr.rig.published[r.folder]}] = hashView(xml)
		}
		cl, err := dialClient(rr.rig.gwAddr, slot, c, reqs, cfg.seed*1000+int64(slot))
		if err != nil {
			return nil, err
		}
		rr.clients = append(rr.clients, cl)
	}
	// The plaintext is no longer needed; dropping it keeps the collector
	// from re-marking it during the timed phase and out of live_heap_mb.
	c.folders = nil
	return rr, rr.warmUp()
}

// warmUp sends every request of every client, untimed, until a full
// pass provisions no new card session (at most three passes), then
// collects garbage.
func (rr *readRun) warmUp() error {
	for pass := 0; pass < 3; pass++ {
		before := rr.rig.fl.PoolStats().Provisions
		t := rr.sweep(overWire)
		if t.failed() > 0 || t.mismatches > 0 {
			return fmt.Errorf("warm-up: %s", cmp.Or(t.firstFail, t.firstBad))
		}
		if pass > 0 && rr.rig.fl.PoolStats().Provisions == before {
			break
		}
	}
	runtime.GC()
	return nil
}

// sweep sends each client's requests once, in order, concurrently.
func (rr *readRun) sweep(v via) *tally {
	tallies := make([]tally, len(rr.clients))
	var wg sync.WaitGroup
	for i, cl := range rr.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range cl.reqs {
				tallies[i].do(cl, v, r, time.Now(), rr.want)
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

func (rr *readRun) close() {
	for _, cl := range rr.clients {
		cl.close()
	}
	if rr.rig != nil {
		rr.rig.close()
	}
}

// header starts the report with the run's shape.
func (rr *readRun) header() *result {
	sp := rr.cfg.spec
	res := &result{env: envLine(), Correct: true}
	res.note("workload %s: %s, clients=%d, seed %d, %.0f s timed", sp.name, sp.loop, rr.cfg.clients, rr.cfg.seed, rr.cfg.seconds)
	res.note("corpus %d folders (%d patients, ~%d visits each), %.2f MiB stored; gatewayd cache %.2f MiB (corpus/cache %.1f)",
		sp.folders, sp.patients, sp.visits, float64(rr.rig.storedBytes)/(1<<20),
		float64(sp.gatewayCache)/(1<<20), float64(rr.rig.storedBytes)/float64(sp.gatewayCache))
	res.note("setup_s samples %v (median reported)", rr.setup)
	res.add("setup_s", "s", median(rr.setup), len(rr.setup))
	return res
}

// book folds a tally into the result's correctness and counts.
func (res *result) book(t *tally) {
	res.Attempted += t.attempted
	res.Failed += t.failed()
	res.firstFail = cmp.Or(res.firstFail, t.firstFail)
	if t.mismatches > 0 {
		res.Correct = false
		res.firstBad = cmp.Or(res.firstBad, t.firstBad)
	}
}

func (rr *readRun) duration(share float64) time.Duration {
	return secondsOf(rr.cfg.seconds * share)
}

// untraced is the end-to-end measurement.
func (rr *readRun) untraced(res *result) {
	res.json = readEndToEnd
	before := rr.rig.counters()
	t := closedLoop(rr.clients, overWire, rr.want, rr.duration(1), rr.cfg.limit)
	after := rr.rig.counters()
	res.book(t)

	n := len(t.lats)
	q := float64(max(n, 1))
	sort.Float64s(t.lats)
	if v, ok := percentile(t.lats, 0.50); ok {
		res.add("query_p50_ms", "ms", v, n)
	}
	if v, ok := percentile(t.lats, 0.99); ok {
		res.add("query_p99_ms", "ms", v, n)
	}
	res.add("query_qps", "1/s", float64(n)/after.at.Sub(before.at).Seconds(), n)
	res.add("fail_frac", "ratio", ratio(float64(t.failed()), float64(t.attempted)), t.attempted)
	res.add("allocs_per_query", "count", float64(after.mallocs-before.mallocs)/q, n)
	res.add("alloc_bytes_per_query", "B", float64(after.allocB-before.allocB)/q, n)
	card := after.meter.Sub(before.meter).Price(card.Modern)
	res.add("card_ms_per_query", "ms", float64(card.Total())/nsPerMs/q, n)
	res.add("dsp_kb_per_query", "KiB", float64(after.dspBytes-before.dspBytes)/1024/q, n)
	res.add("live_heap_mb", "MiB", liveHeapMB(), 1)
}

// traced measures the layers in four equal phases: A repeats the wire
// load with the decorators idle, B records spans around the same wire
// load, C calls the fleet and the renderer directly so their own time is
// visible, and A again. The two A phases bracket B, so drift over the
// run does not pass for tracing overhead.
func (rr *readRun) traced(res *result) error {
	res.json = readPerLayer
	tr := rr.tr
	quarter := rr.duration(1.0 / 4)

	a := closedLoop(rr.clients, overWire, rr.want, quarter, rr.cfg.limit)
	res.book(a)

	tr.reset()
	tr.on.Store(true)
	b0 := rr.rig.counters()
	b := closedLoop(rr.clients, traced(tr, overWire), rr.want, quarter, rr.cfg.limit)
	b1 := rr.rig.counters()
	res.book(b)
	spansB := tr.snapshot()
	frame, copied, single := tr.frameReads.Load(), tr.copyReads.Load(), tr.blockReads.Load()

	tr.reset()
	c0 := rr.rig.counters()
	cT := closedLoop(rr.clients, inProcess(rr.rig.fl, tr), rr.want, quarter, rr.cfg.limit)
	c1 := rr.rig.counters()
	tr.on.Store(false)
	res.book(cT)
	spansC := tr.snapshot()

	a2 := closedLoop(rr.clients, overWire, rr.want, quarter, rr.cfg.limit)
	res.book(a2)
	pa1, pa2 := median(a.lats), median(a2.lats)
	a.merge(a2)

	renderAllocs, renderKB, err := rr.renderCost()
	if err != nil {
		return err
	}

	qb, qc := byQuery(spansB, kindGateway), byQuery(spansC, kindFleet)
	nb, nc := float64(max(len(qb), 1)), float64(max(len(qc), 1))
	var rtt, fleetMs, renderMs, computeMs, fleetPlusRender, headerMs []float64
	var readNs, readN int64
	for _, q := range qb {
		rtt = append(rtt, q.root.ms())
		ns, n := q.sum(kindRead)
		readNs += ns
		readN += int64(n)
		for _, ch := range q.children {
			if ch.kind == kindHeader {
				headerMs = append(headerMs, ch.ms())
			}
		}
	}
	var fleetNs, readNsC int64
	for _, q := range qc {
		fleetMs = append(fleetMs, q.root.ms())
		fleetNs += q.root.end - q.root.start
		ns, _ := q.sum(kindRead)
		readNsC += ns
		computeMs = append(computeMs, float64(q.root.end-q.root.start-q.covered(kindHeader, kindRead, kindRules))/nsPerMs)
		if q.render != nil {
			renderMs = append(renderMs, q.render.ms())
			fleetPlusRender = append(fleetPlusRender, q.root.ms()+q.render.ms())
		}
	}
	pa := median(a.lats)
	pb := median(b.lats)

	res.add("xmlstream.render_ms", "ms", median(renderMs), len(renderMs))
	res.add("xmlstream.render_alloc_kb", "KiB", renderKB, 1)
	res.add("gateway.resp_kb_per_query", "KiB", float64(b.respBytes)/1024/nb, len(qb))
	res.add("gateway.self_ms", "ms", median(rtt)-median(fleetPlusRender), len(qb))
	res.add("fleet.query_ms", "ms", median(fleetMs), len(fleetMs))
	res.add("fleet.compute_ms", "ms", median(computeMs), len(computeMs))
	res.add("fleet.query_allocs", "count", float64(c1.mallocs-c0.mallocs)/nc-renderAllocs, len(qc))
	res.add("fleet.session_reuse", "ratio", ratio(float64(c1.pool.Recycles-b0.pool.Recycles), float64(c1.pool.Queries-b0.pool.Queries)), int(c1.pool.Queries-b0.pool.Queries))
	res.add("fleet.version_refreshes", "count", float64(c1.pool.VersionRefreshes-b0.pool.VersionRefreshes), 1)
	res.add("dsp.header_ms", "ms", median(headerMs), len(headerMs))
	res.add("dsp.read_ms", "ms", float64(readNs)/nsPerMs/nb, len(qb))
	res.add("dsp.reads_per_query", "count", float64(readN)/nb, len(qb))
	res.add("dsp.read_share", "ratio", ratio(float64(readNsC), float64(fleetNs)), len(qc))
	hits, misses := b1.gwCache.Hits-b0.gwCache.Hits, b1.gwCache.Misses-b0.gwCache.Misses
	res.add("dsp.cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	res.add("dsp.cache_evictions_per_query", "count", float64(b1.gwCache.Evictions-b0.gwCache.Evictions)/nb, len(qb))
	res.add("dsp.frame_read_share", "ratio", ratio(float64(frame), float64(frame+copied+single)), int(frame+copied+single))
	res.add("dsp.mmap_reads_per_query", "count", float64(b1.disk.MmapReads-b0.disk.MmapReads)/nb, len(qb))
	res.add("dsp.heap_reads_per_query", "count", float64(b1.disk.HeapReads-b0.disk.HeapReads)/nb, len(qb))
	res.add("dsp.sendfile_byte_share", "ratio", ratio(float64(b1.disk.SendfileBytes-b0.disk.SendfileBytes), float64(b1.dspBytes-b0.dspBytes)), len(qb))
	res.add("proxy.skip_ratio", "ratio", 1-ratio(float64(cT.fetched-cT.wasted), float64(cT.blocksTotal)), len(qc))
	res.add("proxy.waste_ratio", "ratio", ratio(float64(b.wasted), float64(b.fetched)), len(qb))
	res.add("proxy.blocks_fetched_per_query", "count", float64(b.fetched)/nb, len(qb))
	m := b1.meter.Sub(b0.meter)
	price := m.Price(card.Modern)
	res.add("card.crypto_kb_per_query", "KiB", float64(m.CryptoBytes)/1024/nb, len(qb))
	res.add("card.events_per_query", "count", float64(m.Events)/nb, len(qb))
	res.add("card.transfer_ms", "ms", float64(price.Transfer)/nsPerMs/nb, len(qb))
	res.add("card.crypto_ms", "ms", float64(price.Crypto)/nsPerMs/nb, len(qb))
	res.add("card.evaluate_ms", "ms", float64(price.Evaluate)/nsPerMs/nb, len(qb))
	res.add("soe.ram_peak_bytes", "B", float64(cT.ramPeak), len(qc))
	res.add("trace.overhead_pct", "%", 100*ratio(pb-pa, pa), len(b.lats))
	res.note("trace: untraced p50 %.4f ms (n=%d; %.4f before, %.4f after), traced p50 %.4f ms (n=%d); %d wire + %d in-process spans",
		pa, len(a.lats), pa1, pa2, pb, len(b.lats), len(spansB), len(spansC))
	res.note("read path at the fleet tier: %d frame, %d copy, %d single-block reads", frame, copied, single)
	return writeSpans(filepath.Join(rr.cfg.workdir, "spans-"+rr.cfg.spec.name+".jsonl"), append(spansB, spansC...))
}

// renderCost renders a sample of views serially and reports the
// allocations and KiB one render makes.
func (rr *readRun) renderCost() (allocs, kb float64, err error) {
	reqs := rr.clients[0].reqs
	reqs = reqs[:min(len(reqs), 32)]
	var ms0, ms1 runtime.MemStats
	var mallocs, bytes uint64
	for _, r := range reqs {
		res, err := rr.rig.fl.Query(r.subject, docID(r.folder), r.query)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms0)
		_ = res.XML()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(len(reqs))
	return float64(mallocs) / n, float64(bytes) / 1024 / n, nil
}
