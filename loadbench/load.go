package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gateway"
)

// reply is what a query returned, on the wire or in process.
type reply struct {
	xml             string
	version         uint32
	fetched, wasted int
	ramPeak         int // secure RAM peak; in-process replies only
	blocksTotal     int // in-process replies only
}

// tally accumulates one load generator's outcomes. Each generator owns
// its tally; they are merged after the generators stop.
type tally struct {
	lats        []float64 // ms, completed queries only
	attempted   int
	integrity   int // failures the card reported as integrity errors
	otherFail   int
	mismatches  int
	firstFail   string // the first failed query
	firstBad    string // the first view that differs from the oracle
	fetched     int64
	wasted      int64
	blocksTotal int64
	respBytes   int64
	ramPeak     int
	// served records (request, version, view hash) for oracles that can
	// only run after the timed phase (republish-mix).
	served []servedView
}

type servedView struct {
	key  viewKey
	hash uint64
}

func (t *tally) failed() int { return t.integrity + t.otherFail }

func (t *tally) merge(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.attempted += o.attempted
	t.integrity += o.integrity
	t.otherFail += o.otherFail
	t.mismatches += o.mismatches
	t.firstFail = cmp.Or(t.firstFail, o.firstFail)
	t.firstBad = cmp.Or(t.firstBad, o.firstBad)
	t.fetched += o.fetched
	t.wasted += o.wasted
	t.blocksTotal += o.blocksTotal
	t.respBytes += o.respBytes
	t.ramPeak = max(t.ramPeak, o.ramPeak)
	t.served = append(t.served, o.served...)
}

// classify sorts a failed query: integrity errors (what a stale block
// or a read racing a commit produces) apart from everything else.
func classify(err error) (integrity bool) {
	return strings.Contains(err.Error(), "integrity")
}

// client is one load generator: a gateway connection with one wire
// session per subject, the requests it may send and its own random
// stream.
type client struct {
	slot     int
	conn     *gateway.Client
	sessions map[string]*gateway.Session
	reqs     []request
	rng      *rand.Rand
}

func dialClient(addr string, slot int, c *corpus, reqs []request, seed int64) (*client, error) {
	conn, err := gateway.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl := &client{slot: slot, conn: conn, sessions: make(map[string]*gateway.Session), reqs: reqs,
		rng: rand.New(rand.NewSource(seed))}
	for _, s := range c.subjects {
		ses, err := conn.Open(s.name)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("open session for %s: %w", s.name, err)
		}
		cl.sessions[s.name] = ses
	}
	return cl, nil
}

func (cl *client) close() { _ = cl.conn.Close() }

// next draws the client's next request.
func (cl *client) next() request { return cl.reqs[cl.rng.Intn(len(cl.reqs))] }

// via says how a request is served.
type via func(cl *client, r request) (reply, error)

// overWire sends the request through gatewayd, as a deployed client does.
func overWire(cl *client, r request) (reply, error) {
	res, err := cl.sessions[r.subject].Query(docID(r.folder), r.query)
	if err != nil {
		return reply{}, err
	}
	return reply{xml: res.XML, version: res.Version, fetched: res.BlocksFetched, wasted: res.BlocksWasted}, nil
}

// inProcess runs the request on gatewayd's fleet directly and renders it
// as the gateway does; with a tracer it records the fleet and render
// spans of the query.
func inProcess(fl *fleet.Gateway, tr *tracer) via {
	return func(cl *client, r request) (reply, error) {
		var qid, start int64
		if tr != nil {
			qid, start = tr.beginQuery(cl.slot)
		}
		res, err := fl.Query(r.subject, docID(r.folder), r.query)
		if tr != nil {
			tr.endQuery(kindFleet, qid, start)
		}
		if err != nil {
			return reply{}, err
		}
		if tr != nil {
			start = tr.now()
		}
		xml := res.XML()
		if tr != nil {
			tr.record(kindRender, start, tr.ids.Add(1), qid, qid)
		}
		return reply{xml: xml, version: res.Version, fetched: res.Stats.BlocksFetched,
			wasted: res.Stats.BlocksWasted, ramPeak: res.Stats.Session.RAMPeak,
			blocksTotal: res.Stats.BlocksTotal}, nil
	}
}

// traced wraps a wire query in a gateway root span.
func traced(tr *tracer, v via) via {
	return func(cl *client, r request) (reply, error) {
		qid, start := tr.beginQuery(cl.slot)
		rep, err := v(cl, r)
		tr.endQuery(kindGateway, qid, start)
		return rep, err
	}
}

// check compares a completed query with the oracle. With want nil the
// served view is kept for an oracle run after the timed phase.
func (t *tally) check(r request, rep reply, want map[viewKey]uint64) {
	h := hashView(rep.xml)
	k := viewKey{r, rep.version}
	if want == nil {
		t.served = append(t.served, servedView{k, h})
		return
	}
	exp, ok := want[k]
	if !ok || exp != h {
		t.mismatches++
		if t.firstBad == "" {
			t.firstBad = fmt.Sprintf("%s on %s query %q version %d: view differs from core.Filter (%d bytes served)",
				r.subject, docID(r.folder), r.query, rep.version, len(rep.xml))
		}
	}
}

// do runs one request and books its outcome; lat is measured from due.
func (t *tally) do(cl *client, v via, r request, due time.Time, want map[viewKey]uint64) {
	t.attempted++
	rep, err := v(cl, r)
	lat := time.Since(due)
	if err != nil {
		if classify(err) {
			t.integrity++
		} else {
			t.otherFail++
		}
		if t.firstFail == "" {
			t.firstFail = fmt.Sprintf("%s on %s query %q: %v", r.subject, docID(r.folder), r.query, err)
		}
		return
	}
	t.lats = append(t.lats, float64(lat)/float64(time.Millisecond))
	t.fetched += int64(rep.fetched)
	t.wasted += int64(rep.wasted)
	t.blocksTotal += int64(rep.blocksTotal)
	t.respBytes += int64(len(rep.xml))
	t.ramPeak = max(t.ramPeak, rep.ramPeak)
	t.check(r, rep, want)
}

// closedLoop runs every client's next request as soon as its previous
// one completes, until the deadline or until each has sent limit
// requests (limit > 0).
func closedLoop(clients []*client, v via, want map[viewKey]uint64, d time.Duration, limit int) *tally {
	deadline := time.Now().Add(d)
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			for n := 0; limit <= 0 || n < limit; n++ {
				if limit <= 0 && !time.Now().Before(deadline) {
					return
				}
				t.do(cl, v, cl.next(), time.Now(), want)
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

// openLoop sends the client's requests on a fixed schedule of rate per
// second, whether or not earlier ones have completed; latency counts
// from the scheduled time and late records how far behind the sends ran.
func openLoop(cl *client, v via, rate float64, d time.Duration, stop <-chan struct{}) (t *tally, late []float64) {
	t = &tally{}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			return t, late
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return t, late
			}
		}
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		t.do(cl, v, cl.next(), due, nil)
	}
}
