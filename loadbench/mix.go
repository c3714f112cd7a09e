package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
	"repro/internal/proxy"
	"repro/internal/xmlstream"
)

var mixEndToEnd = []string{"setup_s", "commit_p50_ms", "commit_p99_ms", "commits_per_s", "fail_frac", "live_heap_mb"}

var mixPerLayer = []string{
	"proxy.republish_self_ms", "proxy.changed_blocks_per_commit", "proxy.uploaded_kb_per_commit",
	"dsp.begin_ms", "dsp.put_blocks_ms", "dsp.commit_ms",
	"dsp.fsyncs_per_commit", "dsp.group_commit_batch", "dsp.wal_kb_per_commit", "dsp.write_amp",
	"dsp.checkpoints_per_1k_commits", "dsp.checkpoint_ms",
	"fleet.version_refreshes", "gateway.integrity_failures", "gateway.other_failures", "load.reader_late_ms",
	"trace.overhead_pct",
}

// commitLog is what the publisher did: per folder, the edits applied to
// its working copy in order, and for each committed version how many of
// them it contains.
type commitLog struct {
	edits    map[int][]edit
	versions map[int]map[uint32]int // folder → version → edits included
}

// publisher re-publishes folders back to back through its own pool.
type publisher struct {
	pub     *proxy.Publisher
	trees   map[int]*xmlstream.Node // working copies
	folders []int
	rng     *rand.Rand
	pct     float64
	tr      *tracer
	log     commitLog

	lats                 []float64
	attempted, integrity int
	otherFail            int
	firstFail            string
	changed, uploaded    int64
}

func (p *publisher) commit() {
	f := p.folders[p.rng.Intn(len(p.folders))]
	e := newEdit(p.rng, p.trees[f], p.pct)
	e.apply(p.trees[f])
	p.log.edits[f] = append(p.log.edits[f], e)
	p.attempted++

	var qid, start int64
	if p.tr != nil && p.tr.on.Load() {
		qid, start = p.tr.beginQuery(p.tr.publisherSlot())
	}
	t0 := time.Now()
	doc := docID(f)
	info, err := p.pub.Republish(p.trees[f], docenc.EncodeOptions{DocID: doc, Key: docKey(doc)})
	lat := time.Since(t0)
	if qid != 0 {
		p.tr.endQuery(kindRepublish, qid, start)
	}
	if err != nil {
		if classify(err) {
			p.integrity++
		} else {
			p.otherFail++
		}
		if p.firstFail == "" {
			p.firstFail = fmt.Sprintf("republish %s: %v", doc, err)
		}
		return
	}
	p.lats = append(p.lats, float64(lat)/nsPerMs)
	p.changed += int64(info.ChangedBlocks)
	p.uploaded += info.BytesUploaded
	p.log.versions[f][info.Version] = len(p.log.edits[f])
}

// run commits until the deadline.
func (p *publisher) run(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		p.commit()
	}
}

// mixPhase is one timed stretch of publisher and reader side by side.
type mixPhase struct {
	reads          *tally
	late           []float64
	commits0       int // publisher counters when the phase began
	lat0           int
	changed0, up0  int64
	before, after  counters
	elapsedSeconds float64
}

// runMix runs republish-mix.
func runMix(cfg config, c *corpus, dir string) (*result, error) {
	sp := cfg.spec
	owner := make(map[string]int)
	for f := range c.folders {
		owner[docID(f)] = 0 // one reader owns every folder
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1, owner)
	}
	r, setup, err := setupRigs(cfg.setups, dir, c, sp, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()

	var all []int
	for f := range c.folders {
		all = append(all, f)
	}
	reader, err := dialClient(r.gwAddr, 0, c, c.requestsOf(all), cfg.seed*1000)
	if err != nil {
		return nil, err
	}
	defer reader.close()
	pool, err := dsp.DialPool(r.dspAddr, dsp.DefaultPoolSize)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var store dsp.Store = pool
	if tr != nil {
		if store, err = tr.wrap(pool, tierPublisher); err != nil {
			return nil, err
		}
	}
	p := &publisher{
		pub: &proxy.Publisher{Store: store}, trees: make(map[int]*xmlstream.Node), folders: all,
		rng: rand.New(rand.NewSource(cfg.seed*1000 + 999)), pct: sp.editPct, tr: tr,
		log: commitLog{edits: make(map[int][]edit), versions: make(map[int]map[uint32]int)},
	}
	for _, f := range all {
		p.trees[f] = cloneTree(c.folders[f])
		p.log.versions[f] = map[uint32]int{r.published[f]: 0}
	}

	// Warm-up: every reader request once before any re-publication, so
	// each subject is provisioned and the cache holds the corpus.
	warm := &tally{}
	for _, req := range reader.reqs {
		warm.do(reader, overWire, req, time.Now(), nil)
	}
	warmRes := &result{Correct: true}
	if err := mixOracle(c, p.log, warm, warmRes); err != nil {
		return nil, err
	}
	if warm.failed() > 0 || !warmRes.Correct {
		return nil, fmt.Errorf("warm-up: %s", cmp.Or(warm.firstFail, warmRes.firstBad))
	}
	runtime.GC()

	res := &result{env: envLine(), Correct: true, json: mixEndToEnd}
	res.note("workload %s: %s; reader %.0f queries/s scheduled, seed %d, %.0f s timed", sp.name, sp.loop, sp.readerRate, cfg.seed, cfg.seconds)
	res.note("corpus %d folders (%d patients, ~%d visits each), %.2f MiB stored; gatewayd cache %.2f MiB; each commit edits %.0f%% of a folder's visits",
		len(c.folders), sp.patients, sp.visits, float64(r.storedBytes)/(1<<20), float64(sp.gatewayCache)/(1<<20), sp.editPct)
	res.note("setup_s samples %v (median reported)", setup)
	res.add("setup_s", "s", median(setup), len(setup))

	phase := func(d time.Duration) mixPhase {
		ph := mixPhase{commits0: p.attempted, lat0: len(p.lats), changed0: p.changed, up0: p.uploaded, before: r.counters()}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := overWire
			if tr != nil && tr.on.Load() {
				v = traced(tr, overWire)
			}
			ph.reads, ph.late = openLoop(reader, v, sp.readerRate, d, stop)
		}()
		p.run(d)
		close(stop) // the reader ends at d on its own; stop only cuts a pending wait
		wg.Wait()
		ph.after = r.counters()
		ph.elapsedSeconds = ph.after.at.Sub(ph.before.at).Seconds()
		return ph
	}

	if !cfg.trace {
		ph := phase(secondsOf(cfg.seconds))
		if err := mixOracle(c, p.log, ph.reads, res); err != nil {
			return nil, err
		}
		mixEndToEndMetrics(res, p, ph)
		return res, nil
	}

	res.json = mixPerLayer
	base := phase(secondsOf(cfg.seconds / 2))
	tr.reset()
	tr.on.Store(true)
	ph := phase(secondsOf(cfg.seconds / 2))
	tr.on.Store(false)
	reads := &tally{}
	reads.merge(base.reads)
	reads.merge(ph.reads)
	if err := mixOracle(c, p.log, reads, res); err != nil {
		return nil, err
	}
	mixLayerMetrics(res, p, base, ph, tr.snapshot())
	if err := writeSpans(filepath.Join(cfg.workdir, "spans-"+sp.name+".jsonl"), tr.snapshot()); err != nil {
		return nil, err
	}
	return res, nil
}

// mixOracle checks every view the reader was served against core.Filter
// on the folder as of the version it was served from, rebuilt by
// replaying the logged edits after the timed phase.
func mixOracle(c *corpus, log commitLog, reads *tally, res *result) error {
	res.book(reads)
	byFolder := make(map[int][]servedView)
	for _, s := range reads.served {
		byFolder[s.key.folder] = append(byFolder[s.key.folder], s)
	}
	for f, served := range byFolder {
		edits := log.edits[f]
		sort.Slice(served, func(i, j int) bool { return served[i].key.version < served[j].key.version })
		tree := cloneTree(c.folders[f])
		applied := 0
		cache := make(map[viewKey]uint64)
		for _, s := range served {
			k, ok := log.versions[f][s.key.version]
			if !ok {
				res.Correct = false
				res.firstBad = cmp.Or(res.firstBad, fmt.Sprintf("%s served version %d, which was never committed", docID(f), s.key.version))
				continue
			}
			if k < applied {
				return fmt.Errorf("versions of %s out of edit order", docID(f))
			}
			for ; applied < k; applied++ {
				edits[applied].apply(tree)
			}
			want, ok := cache[s.key]
			if !ok {
				xml, err := c.expectedView(tree, s.key.request)
				if err != nil {
					return err
				}
				want = hashView(xml)
				cache[s.key] = want
			}
			if want != s.hash {
				res.Correct = false
				if res.firstBad == "" {
					res.firstBad = fmt.Sprintf("%s on %s version %d: view differs from core.Filter", s.key.subject, docID(f), s.key.version)
				}
			}
		}
	}
	return nil
}

func mixEndToEndMetrics(res *result, p *publisher, ph mixPhase) {
	commits := p.attempted - ph.commits0
	cfail := p.integrity + p.otherFail
	res.Attempted += commits
	res.Failed += cfail
	lats := append([]float64(nil), p.lats[ph.lat0:]...)
	sort.Float64s(lats)
	if v, ok := percentile(lats, 0.50); ok {
		res.add("commit_p50_ms", "ms", v, len(lats))
	}
	if v, ok := percentile(lats, 0.99); ok {
		res.add("commit_p99_ms", "ms", v, len(lats))
	}
	res.add("commits_per_s", "1/s", float64(len(lats))/ph.elapsedSeconds, len(lats))
	res.add("fail_frac", "ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	res.add("live_heap_mb", "MiB", liveHeapMB(), 1)

	// The reader's side, for the record.
	rl := append([]float64(nil), ph.reads.lats...)
	sort.Float64s(rl)
	if v, ok := percentile(rl, 0.50); ok {
		res.add("query_p50_ms", "ms", v, len(rl))
	}
	if v, ok := percentile(rl, 0.99); ok {
		res.add("query_p99_ms", "ms", v, len(rl))
	}
	res.add("query_fail_frac", "ratio", ratio(float64(ph.reads.failed()), float64(ph.reads.attempted)), ph.reads.attempted)
	res.add("commit_fail_frac", "ratio", ratio(float64(cfail), float64(commits)), commits)
	res.note("reader: %d attempted, %d integrity failures, %d other failures; publisher: %d commits attempted, %d integrity, %d other",
		ph.reads.attempted, ph.reads.integrity, ph.reads.otherFail, commits, p.integrity, p.otherFail)
	res.note("first commit failure: %s", cmp.Or(p.firstFail, "none"))
}

func mixLayerMetrics(res *result, p *publisher, base, ph mixPhase, spans []span) {
	res.Attempted += p.attempted
	res.Failed += p.integrity + p.otherFail
	okCommits := float64(max(len(p.lats)-ph.lat0, 1))

	var self, begin, put, commit []float64
	for _, q := range byQuery(spans, kindRepublish) {
		self = append(self, float64(q.root.end-q.root.start-q.covered(kindPubRead, kindBegin, kindPut, kindCommit, kindAbort))/nsPerMs)
		for _, ch := range q.children {
			switch ch.kind {
			case kindBegin:
				begin = append(begin, ch.ms())
			case kindPut:
				put = append(put, ch.ms())
			case kindCommit:
				commit = append(commit, ch.ms())
			}
		}
	}
	d0, d1 := ph.before.disk, ph.after.disk
	res.add("proxy.republish_self_ms", "ms", median(self), len(self))
	res.add("proxy.changed_blocks_per_commit", "count", float64(p.changed-ph.changed0)/okCommits, int(okCommits))
	res.add("proxy.uploaded_kb_per_commit", "KiB", float64(p.uploaded-ph.up0)/1024/okCommits, int(okCommits))
	res.add("dsp.begin_ms", "ms", median(begin), len(begin))
	res.add("dsp.put_blocks_ms", "ms", median(put), len(put))
	res.add("dsp.commit_ms", "ms", median(commit), len(commit))
	res.add("dsp.fsyncs_per_commit", "count", float64(d1.Syncs-d0.Syncs)/okCommits, int(okCommits))
	res.add("dsp.group_commit_batch", "ratio", ratio(float64(d1.SyncWaits-d0.SyncWaits), float64(d1.SyncRounds-d0.SyncRounds)), int(d1.SyncRounds-d0.SyncRounds))
	res.add("dsp.wal_kb_per_commit", "KiB", float64(d1.AppendedBytes-d0.AppendedBytes)/1024/okCommits, int(okCommits))
	res.add("dsp.write_amp", "ratio", ratio(float64(d1.AppendedBytes-d0.AppendedBytes), float64(p.uploaded-ph.up0)), int(okCommits))
	res.add("dsp.checkpoints_per_1k_commits", "count", 1000*float64(d1.Checkpoints-d0.Checkpoints)/okCommits, int(okCommits))
	ckpt := 0.0
	if d1.Checkpoints > d0.Checkpoints {
		ckpt = float64(d1.LastCheckpointDuration) / nsPerMs
	}
	res.add("dsp.checkpoint_ms", "ms", ckpt, int(d1.Checkpoints-d0.Checkpoints))
	res.add("fleet.version_refreshes", "count", float64(ph.after.pool.VersionRefreshes-ph.before.pool.VersionRefreshes), 1)
	res.add("gateway.integrity_failures", "count", float64(ph.reads.integrity), ph.reads.attempted)
	res.add("gateway.other_failures", "count", float64(ph.reads.otherFail), ph.reads.attempted)
	res.add("load.reader_late_ms", "ms", median(ph.late), len(ph.late))
	pa, pb := median(p.lats[base.lat0:ph.lat0]), median(p.lats[ph.lat0:])
	res.add("trace.overhead_pct", "%", 100*ratio(pb-pa, pa), len(p.lats)-ph.lat0)
}
