package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/card"
	"repro/internal/dsp"
	"repro/internal/fleet"
)

// counters is a snapshot of every counter the deployment exposes
// through public functions; metrics are deltas between two snapshots.
type counters struct {
	at              time.Time
	mallocs, allocB uint64
	pool            fleet.PoolStats
	meter           card.Meter
	gwCache         dsp.CacheStats
	disk            dsp.FileStoreStats
	dspBytes        int64 // read by gatewayd from dspd
}

func (r *rig) counters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		at:       time.Now(),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		pool:     r.fl.PoolStats(),
		gwCache:  r.gwCache.Stats(),
		disk:     r.durable.Stats(),
		dspBytes: r.gwPool.BytesRead(),
	}
	for _, s := range r.fl.Stats() {
		c.meter.Add(s.Meter)
	}
	return c
}

// liveHeapMB is the heap still in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank q-quantile of sorted values; ok is
// false unless at least 10 samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= 10
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const nsPerMs = float64(time.Millisecond)

// queryTrace groups the spans of one query or commit.
type queryTrace struct {
	root     *span
	render   *span
	children []span // dsp spans, in start order
}

// byQuery groups spans by query id, keeping only queries whose root
// span of kind root was recorded.
func byQuery(spans []span, root int) map[int64]*queryTrace {
	out := make(map[int64]*queryTrace)
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 && int(s.kind) == root {
			q := out[s.qid]
			if q == nil {
				q = &queryTrace{}
				out[s.qid] = q
			}
			q.root = s
		}
	}
	for i := range spans {
		s := &spans[i]
		q := out[s.qid]
		if q == nil || s.parent == 0 {
			continue
		}
		if s.kind == kindRender {
			q.render = s
		} else {
			q.children = append(q.children, *s)
		}
	}
	for _, q := range out {
		sort.Slice(q.children, func(i, j int) bool { return q.children[i].start < q.children[j].start })
	}
	return out
}

// covered is how much of [start, end) the spans of the given kinds
// cover, overlaps counted once: the part of a root span that is not its
// own work.
func (q *queryTrace) covered(kinds ...int) int64 {
	var total, curS, curE int64
	open := false
	for _, c := range q.children {
		if !slices.Contains(kinds, int(c.kind)) {
			continue
		}
		s, e := max(c.start, q.root.start), min(c.end, q.root.end)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// sum is the total duration of the spans of the given kinds and their count.
func (q *queryTrace) sum(kinds ...int) (ns int64, n int) {
	for _, c := range q.children {
		if slices.Contains(kinds, int(c.kind)) {
			ns += c.end - c.start
			n++
		}
	}
	return ns, n
}

func (s *span) ms() float64 { return float64(s.end-s.start) / nsPerMs }
