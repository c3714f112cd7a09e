package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/docenc"
	"repro/internal/dsp"
)

// Span kinds. A span's layer is the part of its name before the first
// dot; the root span of a query carries the query id as its own id.
const (
	kindGateway      = iota // client round trip through gatewayd (root)
	kindFleet               // fleet.Gateway.Query (root, in-process phase)
	kindRender              // proxy.Result.XML: the xmlstream rendering
	kindRepublish           // proxy.Publisher.Republish (root, publisher)
	kindHeader              // dsp Header through gatewayd's cache
	kindRead                // dsp block reads through gatewayd's cache
	kindRules               // dsp RuleSet through gatewayd's cache
	kindRemoteHeader        // the same calls below the cache, on the wire to dspd
	kindRemoteRead
	kindRemoteRules
	kindBegin   // publisher's BeginUpdate
	kindPut     // publisher's PutBlocks
	kindCommit  // publisher's CommitUpdate
	kindAbort   // publisher's AbortUpdate
	kindPubRead // publisher's base Header and block reads
	numKinds
)

var kindNames = [numKinds]string{
	"gateway.query", "fleet.query", "xmlstream.render", "proxy.republish",
	"dsp.header", "dsp.read", "dsp.rules",
	"dsp.remote.header", "dsp.remote.read", "dsp.remote.rules",
	"dsp.begin", "dsp.put_blocks", "dsp.commit", "dsp.abort", "dsp.publisher_read",
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	start, end int64
	id, parent int64 // parent 0: a root span
	qid        int64 // the query (or commit) the span belongs to
	kind       uint8
}

// Store tiers a decorator can sit at.
const (
	tierFleet     = iota // above gatewayd's block cache: what the fleet asks for
	tierRemote           // below it: what goes over the wire to dspd
	tierPublisher        // the publisher's own pool
)

// tracer records spans in memory while on. Store calls carry no query
// id, so a decorator attributes a call to the query currently running
// in the slot that owns the document: each client of a read workload
// owns its folders alone, and the publisher owns its pool.
type tracer struct {
	on    atomic.Bool
	start time.Time
	ids   atomic.Int64

	owner map[string]int // docID → slot; fixed before the run
	cur   []atomic.Int64 // slot → id of the query it is running

	mu    sync.Mutex
	spans []span

	// Read path counters at the fleet tier (recorded while on).
	frameReads, copyReads, blockReads atomic.Int64
}

// newTracer serves slots client slots plus one publisher slot.
func newTracer(slots int, owner map[string]int) *tracer {
	return &tracer{start: time.Now(), owner: owner, cur: make([]atomic.Int64, slots+1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

// publisherSlot is the slot republish commits run in.
func (t *tracer) publisherSlot() int { return len(t.cur) - 1 }

// beginQuery opens a root span for slot and returns its id (the query id).
func (t *tracer) beginQuery(slot int) (id, start int64) {
	id = t.ids.Add(1)
	t.cur[slot].Store(id)
	return id, t.now()
}

// record appends one finished span.
func (t *tracer) record(kind int, start int64, id, parent, qid int64) {
	s := span{start: start, end: t.now(), id: id, parent: parent, qid: qid, kind: uint8(kind)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// endQuery closes the root span opened by beginQuery.
func (t *tracer) endQuery(kind int, id, start int64) {
	t.record(kind, start, id, 0, id)
}

// child starts a span under the query running in slot; the returned
// function ends it. It returns nil while tracing is off.
func (t *tracer) child(kind, slot int) func() {
	if !t.on.Load() || slot < 0 {
		return nil
	}
	qid := t.cur[slot].Load()
	start := t.now()
	return func() { t.record(kind, start, t.ids.Add(1), qid, qid) }
}

// slotOf is the slot owning doc, -1 when none does.
func (t *tracer) slotOf(doc string) int {
	if s, ok := t.owner[doc]; ok {
		return s
	}
	return -1
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops recorded spans and counters between phases.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.frameReads.Store(0)
	t.copyReads.Store(0)
	t.blockReads.Store(0)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"query":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			kindNames[s.kind], s.id, s.parent, s.qid, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// frameReader is the capability proxy.Session looks for to take the
// in-place frame-decrypt read path.
type frameReader interface {
	ReadBlocksFrame(docID string, start, count int) (*dsp.BlockFrame, error)
}

// wrap returns a timing decorator over s with exactly s's read and
// update capabilities. Mirrored: BlockRangeReader (required), the
// ReadBlocksFrame path, DocUpdater and PinnedBlockReader. The
// unexported wire-read path of dsp's own stores cannot be mirrored, so a
// decorator must never sit under a dsp.Server; the benchmark only puts
// them on gatewayd's and the publisher's side. A capability mix this
// file has no decorator type for is refused rather than silently
// narrowed.
func (t *tracer) wrap(s dsp.Store, tier int) (dsp.Store, error) {
	br, ok := s.(dsp.BlockRangeReader)
	if !ok {
		return nil, fmt.Errorf("trace: %T has no batched reads", s)
	}
	base := &timedStore{Store: s, br: br, t: t, tier: tier}
	fr, hasFrame := s.(frameReader)
	up, hasUpdate := s.(dsp.DocUpdater)
	pr, hasPinned := s.(dsp.PinnedBlockReader)
	switch {
	case hasFrame && hasUpdate && !hasPinned: // dsp.Pool, dsp.Client
		return &timedFrameUpdater{base, timedFrame{base, fr}, timedUpdater{base, up}}, nil
	case !hasFrame && hasUpdate && hasPinned: // dsp.Cache, dsp.FileStore
		return &timedPinnedUpdater{base, timedPinned{base, pr}, timedUpdater{base, up}}, nil
	}
	return nil, fmt.Errorf("trace: no decorator mirrors the capabilities of %T (frame %v, update %v, pinned %v)",
		s, hasFrame, hasUpdate, hasPinned)
}

// timedStore times the Store and BlockRangeReader calls of the query
// path; PutDocument, PutRuleSet and ListDocuments pass through.
type timedStore struct {
	dsp.Store
	br   dsp.BlockRangeReader
	t    *tracer
	tier int
}

// slot attributes a call on doc to its owner.
func (s *timedStore) slot(doc string) int {
	if s.tier == tierPublisher {
		return s.t.publisherSlot()
	}
	return s.t.slotOf(doc)
}

// kind maps a fleet-tier kind onto the decorator's tier.
func (s *timedStore) kind(fleetKind int) int {
	switch s.tier {
	case tierRemote:
		return fleetKind + kindRemoteHeader - kindHeader
	case tierPublisher:
		return kindPubRead
	}
	return fleetKind
}

func (s *timedStore) Header(doc string) (docenc.Header, error) {
	if end := s.t.child(s.kind(kindHeader), s.slot(doc)); end != nil {
		defer end()
	}
	return s.Store.Header(doc)
}

func (s *timedStore) ReadBlock(doc string, idx int) ([]byte, error) {
	if end := s.t.child(s.kind(kindRead), s.slot(doc)); end != nil {
		defer end()
		if s.tier == tierFleet {
			s.t.blockReads.Add(1)
		}
	}
	return s.Store.ReadBlock(doc, idx)
}

func (s *timedStore) ReadBlocks(doc string, start, count int) ([][]byte, error) {
	if end := s.t.child(s.kind(kindRead), s.slot(doc)); end != nil {
		defer end()
		if s.tier == tierFleet {
			s.t.copyReads.Add(1)
		}
	}
	return s.br.ReadBlocks(doc, start, count)
}

func (s *timedStore) RuleSet(doc, subject string) ([]byte, error) {
	if end := s.t.child(s.kind(kindRules), s.slot(doc)); end != nil {
		defer end()
	}
	return s.Store.RuleSet(doc, subject)
}

// timedFrame forwards the pooled-frame batched read.
type timedFrame struct {
	s  *timedStore
	fr frameReader
}

func (f timedFrame) ReadBlocksFrame(doc string, start, count int) (*dsp.BlockFrame, error) {
	if end := f.s.t.child(f.s.kind(kindRead), f.s.slot(doc)); end != nil {
		defer end()
		if f.s.tier == tierFleet {
			f.s.t.frameReads.Add(1)
		}
	}
	return f.fr.ReadBlocksFrame(doc, start, count)
}

// timedPinned forwards the zero-copy pinned read.
type timedPinned struct {
	s  *timedStore
	pr dsp.PinnedBlockReader
}

func (p timedPinned) ReadBlocksPinned(doc string, start, count int, pins *[]dsp.BlockPin) ([][]byte, bool, error) {
	if end := p.s.t.child(p.s.kind(kindRead), p.s.slot(doc)); end != nil {
		defer end()
	}
	return p.pr.ReadBlocksPinned(doc, start, count, pins)
}

// timedUpdater forwards the block-level update handshake.
type timedUpdater struct {
	s  *timedStore
	up dsp.DocUpdater
}

func (u timedUpdater) BeginUpdate(h docenc.Header, base uint32) (uint64, error) {
	if end := u.s.t.child(kindBegin, u.s.slot(h.DocID)); end != nil {
		defer end()
	}
	return u.up.BeginUpdate(h, base)
}

func (u timedUpdater) PutBlocks(token uint64, start int, blocks [][]byte) error {
	if end := u.s.t.child(kindPut, u.s.slot("")); end != nil {
		defer end()
	}
	return u.up.PutBlocks(token, start, blocks)
}

func (u timedUpdater) CommitUpdate(token uint64) error {
	if end := u.s.t.child(kindCommit, u.s.slot("")); end != nil {
		defer end()
	}
	return u.up.CommitUpdate(token)
}

func (u timedUpdater) AbortUpdate(token uint64) error {
	if end := u.s.t.child(kindAbort, u.s.slot("")); end != nil {
		defer end()
	}
	return u.up.AbortUpdate(token)
}

// The capability mixes wrap supports.
type (
	timedFrameUpdater struct {
		*timedStore
		timedFrame
		timedUpdater
	}
	timedPinnedUpdater struct {
		*timedStore
		timedPinned
		timedUpdater
	}
)
