package main

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"

	"repro/internal/dsp"
)

// tinyConfig shrinks a workload to a smoke-test size.
func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	small := *sp
	small.folders, small.patients, small.visits = 4, 4, 2
	if small.gatewayCache < gatewayCacheBytes {
		small.gatewayCache = 16 << 10 // still far below the corpus
	}
	return config{spec: &small, seed: 7, seconds: 0.6, trace: trace, workdir: t.TempDir(), clients: 2, setups: 2}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the report: oracle agreement and every metric of the JSON line.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			name := sp.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute(tinyConfig(t, sp.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("oracle mismatch: %s", res.firstBad)
				}
				if res.Attempted == 0 {
					t.Fatal("nothing attempted")
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				for _, m := range res.json {
					// A tiny run has too few samples beyond a p99.
					if _, ok := last.Metrics[m]; !ok && m != "query_p99_ms" && m != "commit_p99_ms" {
						t.Errorf("metric %s missing from %s", m, lines[len(lines)-1])
					}
				}
			})
		}
	}
}

// TestRepublishMixCountsStaleReads pins the failure accounting: reads
// racing re-publication through gatewayd's cache fail as integrity
// errors, are counted against their attempts and never pass as views.
func TestRepublishMixCountsStaleReads(t *testing.T) {
	res, err := execute(tinyConfig(t, "republish-mix", false))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("oracle mismatch: %s", res.firstBad)
	}
	var fail float64
	for _, m := range res.metrics {
		if m.name == "fail_frac" {
			fail = m.value
		}
	}
	if res.Failed == 0 || fail != float64(res.Failed)/float64(res.Attempted) {
		t.Fatalf("failed %d of %d, fail_frac %v", res.Failed, res.Attempted, fail)
	}
}

// loopbackPool serves a MemStore over TCP and dials a pool to it.
func loopbackPool(t *testing.T) *dsp.Pool {
	t.Helper()
	srv := dsp.NewServer(dsp.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	pool, err := dsp.DialPool(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = pool.Close()
		_ = srv.Close()
		<-done
	})
	return pool
}

// capabilities lists which optional store interfaces s implements.
func capabilities(s dsp.Store) [4]bool {
	_, br := s.(dsp.BlockRangeReader)
	_, fr := s.(frameReader)
	_, up := s.(dsp.DocUpdater)
	_, pr := s.(dsp.PinnedBlockReader)
	return [4]bool{br, fr, up, pr}
}

// TestWrapMirrorsCapabilities: a decorator offers exactly the optional
// interfaces of the store it wraps, or refuses to wrap it.
func TestWrapMirrorsCapabilities(t *testing.T) {
	tr := newTracer(1, nil)
	pool := loopbackPool(t)
	for _, s := range []dsp.Store{pool, dsp.NewCache(pool, 1<<20)} {
		for _, tier := range []int{tierFleet, tierRemote, tierPublisher} {
			w, err := tr.wrap(s, tier)
			if err != nil {
				t.Fatalf("wrap %T: %v", s, err)
			}
			if got, want := capabilities(w), capabilities(s); got != want {
				t.Errorf("wrap %T: capabilities %v, want %v", s, got, want)
			}
		}
	}
	if _, err := tr.wrap(dsp.NewMemStore(), tierFleet); err == nil {
		t.Error("wrapping a capability mix without a decorator type succeeded")
	}
}

// readPath runs a fixed request sequence on one client and reports the
// fleet's store and what the queries fetched.
func readPath(t *testing.T, trace bool) (fleetStore dsp.Store, tl *tally, frame, copied int64) {
	t.Helper()
	cfg := tinyConfig(t, "select-cold", trace)
	cfg.clients, cfg.limit = 1, 60
	c, err := newCorpus(cfg.seed, cfg.spec)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := startRead(cfg, c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()
	v := overWire
	if trace {
		rr.tr.reset()
		rr.tr.on.Store(true)
		v = traced(rr.tr, overWire)
	}
	tl = closedLoop(rr.clients, v, rr.want, 0, cfg.limit)
	if tl.failed() > 0 || tl.mismatches > 0 {
		t.Fatalf("run failed: %s", tl.firstBad)
	}
	if trace {
		frame, copied = rr.tr.frameReads.Load(), rr.tr.copyReads.Load()
	}
	return rr.rig.fleetStore, tl, frame, copied
}

// TestTracedReadPathMatchesUntraced: on a fixed seed the traced run takes
// the untraced run's read path — the fleet sees the same capabilities,
// so the same frame/copy split, and the card pulls the same blocks.
func TestTracedReadPathMatchesUntraced(t *testing.T) {
	plainStore, plain, _, _ := readPath(t, false)
	tracedStore, tr, frame, copied := readPath(t, true)
	if got, want := capabilities(tracedStore), capabilities(plainStore); got != want {
		t.Fatalf("traced fleet store capabilities %v, untraced %v", got, want)
	}
	if _, hasFrame := plainStore.(frameReader); hasFrame != (frame > 0) || frame+copied == 0 {
		t.Errorf("frame path offered %v, traced run took %d frame / %d copy reads", hasFrame, frame, copied)
	}
	if plain.attempted != tr.attempted {
		t.Fatalf("attempted %d untraced, %d traced", plain.attempted, tr.attempted)
	}
	if used, tused := plain.fetched-plain.wasted, tr.fetched-tr.wasted; used != tused {
		t.Errorf("blocks the card consumed: %d untraced, %d traced", used, tused)
	}
	// Speculative prefetch makes the fetched count jitter by a block or
	// two between any two runs, traced or not; a changed read path moves
	// it by far more.
	if d := plain.fetched - tr.fetched; d*100 > plain.fetched || -d*100 > plain.fetched {
		t.Errorf("blocks fetched: %d untraced, %d traced", plain.fetched, tr.fetched)
	}
}
