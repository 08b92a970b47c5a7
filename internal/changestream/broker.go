// Package changestream implements the change-streams subsystem: a
// subscription manager (Broker) that tails committed write-ahead-log records
// and fans ordered change events out to any number of watchers through
// bounded buffers, with resume — replaying WAL segments from a token's
// position before switching to the live tail — and slow-consumer
// invalidation.
//
// # Ordering
//
// The write path publishes each record after it has been applied and its
// collection lock released, so publishes from concurrent collections can
// arrive out of LSN order. The broker sequences them: events are delivered
// to watchers only up to the contiguous LSN frontier, so every watcher
// observes events in strictly increasing (LSN, op) order — the property the
// cluster-wide merge and exactly-once resume are built on. Every appended
// record must therefore be published exactly once, including records that
// produce no watcher-visible events (index management), or the frontier
// would stall.
//
// # Resume
//
// A watcher resumes by presenting the token of the last event it processed.
// The subscription replays WAL segments from disk for the records the token
// precedes, up to the stream's join point, then switches to the live buffer;
// the join point (the log's last LSN at subscribe time, captured after the
// subscriber count is raised) partitions history and live so no event is
// lost or delivered twice. A token below the checkpoint prune cutoff cannot
// be honoured — its segments are gone — and fails with ErrTokenTooOld
// rather than returning a gap.
package changestream

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"docstore/internal/wal"
)

// DefaultBufferSize is the per-watcher bounded buffer when the subscriber
// does not choose one (docstored overrides it with -changestream-buffer).
const DefaultBufferSize = 256

var (
	// ErrSlowConsumer invalidates a watcher whose buffer overflowed: the
	// write path never blocks on a watcher, so one that cannot keep up is
	// cut off and must resume from its last token.
	ErrSlowConsumer = errors.New("changestream: watcher buffer overflowed; resume from the last token")
	// ErrClosed reports the stream (or the whole broker) was closed.
	ErrClosed = errors.New("changestream: stream closed")
	// ErrTokenTooOld reports a resume token below the checkpoint prune
	// cutoff: the WAL segments holding its history have been removed, so
	// the stream cannot resume without a gap.
	ErrTokenTooOld = errors.New("changestream: resume token is older than the retained log (pruned by a checkpoint)")
)

// Stream is the consumer interface of a change stream, implemented by a
// stand-alone Subscription and by the cluster-wide merged stream of mongos.
type Stream interface {
	// Next returns the next event, waiting up to maxWait for one to
	// arrive. (nil, nil) means the wait elapsed with the stream still
	// live — the awaitData contract. A terminal error (ErrClosed,
	// ErrSlowConsumer, ErrTokenTooOld) means the stream is dead.
	Next(maxWait time.Duration) (*Event, error)
	// ResumeToken returns the token of the last delivered event (or the
	// stream's starting position before any delivery): the value to pass
	// as resumeAfter to continue exactly after what was consumed.
	ResumeToken() string
	// Alive reports whether the stream can still deliver events; the wire
	// layer keeps a live tailable cursor exempt from idle reaping.
	Alive() bool
	// Close tears the stream down. Safe to call multiple times.
	Close()
}

// Stats reports broker counters.
type Stats struct {
	// Watchers is the number of live subscriptions.
	Watchers int
	// RecordsPublished counts WAL records sequenced through the broker.
	RecordsPublished int64
	// EventsDelivered counts events enqueued into watcher buffers.
	EventsDelivered int64
	// SlowConsumers counts watchers invalidated by buffer overflow.
	SlowConsumers int64
	// BufferedEvents is the total number of events currently sitting in
	// watcher buffers (delivered but not yet consumed).
	BufferedEvents int64
	// MaxBufferDepth is the deepest single watcher buffer right now: the
	// early-warning signal that some consumer is heading toward
	// slow-consumer invalidation.
	MaxBufferDepth int
}

// Broker is the subscription manager tailing one server's WAL.
type Broker struct {
	w *wal.WAL

	// subCount is raised — together with the namespace-interest index —
	// BEFORE a subscriber reads the WAL's last LSN for its join point.
	// Writers check it after their append returns; the WAL mutex then
	// orders the check after the raise for every record past the join
	// point, which is what lets the write path skip event materialization
	// (and payload cloning) entirely while nobody watches, without a
	// lost-event window.
	subCount atomic.Int64

	// interestMu guards interest: reference counts of watcher scopes,
	// keyed by interestKey. It is separate from mu so the write path's
	// WantsEvents never contends with an in-progress delivery fan-out.
	interestMu sync.RWMutex
	interest   map[string]int

	records   atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64

	mu      sync.Mutex
	nextLSN int64              // delivery frontier: next LSN to hand to watchers
	pending map[int64][]*Event // out-of-order publishes parked until the frontier reaches them
	subs    map[int64]*Subscription
	nextID  int64
	closed  bool
}

// NewBroker creates a broker tailing w. It must be created after recovery
// replay, so the frontier starts at the first post-recovery record.
func NewBroker(w *wal.WAL) *Broker {
	return &Broker{
		w:        w,
		nextLSN:  w.LastLSN() + 1,
		pending:  make(map[int64][]*Event),
		subs:     make(map[int64]*Subscription),
		interest: make(map[string]int),
	}
}

// interestKey renders a watcher scope (or a record's namespace) for the
// interest index: "" is server-wide, "db\x00" database-wide, "db\x00coll"
// one collection.
func interestKey(db, coll string) string {
	if db == "" {
		return ""
	}
	return db + "\x00" + coll
}

// WantsEvents reports whether any watcher's scope covers the namespace. The
// write path reads it after appending a record to decide whether to
// materialize (and clone) that record's events; a watcher on one collection
// therefore costs nothing on writes to namespaces nobody watches. The
// after-the-append order is load-bearing: see the subCount comment.
func (b *Broker) WantsEvents(db, coll string) bool {
	if b.subCount.Load() == 0 {
		return false
	}
	b.interestMu.RLock()
	defer b.interestMu.RUnlock()
	return b.interest[""] > 0 || b.interest[interestKey(db, "")] > 0 || b.interest[interestKey(db, coll)] > 0
}

// Stats returns current counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	watchers := len(b.subs)
	var buffered int64
	maxDepth := 0
	for _, sub := range b.subs {
		depth := len(sub.ch)
		buffered += int64(depth)
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	b.mu.Unlock()
	return Stats{
		Watchers:         watchers,
		RecordsPublished: b.records.Load(),
		EventsDelivered:  b.delivered.Load(),
		SlowConsumers:    b.dropped.Load(),
		BufferedEvents:   buffered,
		MaxBufferDepth:   maxDepth,
	}
}

// WatcherDepth describes one live watcher's buffer occupancy.
type WatcherDepth struct {
	// ID is the subscription's broker-assigned identifier.
	ID int64
	// DB and Coll are the watcher's scope ("" = wider scope).
	DB, Coll string
	// Buffered is how many delivered events await consumption; Capacity is
	// the buffer bound that, once hit, invalidates the watcher.
	Buffered, Capacity int
}

// WatcherDepths snapshots every live watcher's buffer depth, ordered by
// subscription ID (attach order). serverStatus surfaces it so an operator
// can see which change-stream consumer is falling behind before the broker
// cuts it off.
func (b *Broker) WatcherDepths() []WatcherDepth {
	b.mu.Lock()
	out := make([]WatcherDepth, 0, len(b.subs))
	for _, sub := range b.subs {
		out = append(out, WatcherDepth{
			ID: sub.id, DB: sub.scopeDB, Coll: sub.scopeColl,
			Buffered: len(sub.ch), Capacity: cap(sub.ch),
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Publish hands the broker one applied record's events. Every consumed LSN
// must be published exactly once, in any order; delivery happens in LSN
// order once the frontier reaches the record. events may be nil (no
// watcher-visible events, or no watcher was attached when the record was
// logged — the ordering argument on subCount guarantees no watcher needed
// them).
func (b *Broker) Publish(lsn int64, events []*Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || lsn < b.nextLSN {
		return
	}
	b.pending[lsn] = events
	for {
		evs, ok := b.pending[b.nextLSN]
		if !ok {
			return
		}
		delete(b.pending, b.nextLSN)
		b.records.Add(1)
		if len(evs) > 0 {
			b.deliverLocked(evs)
		}
		b.nextLSN++
	}
}

// deliverLocked fans one record's events out to every subscription whose
// join point precedes them, applying per-watcher filters. A full buffer
// invalidates the watcher instead of blocking the write path.
func (b *Broker) deliverLocked(events []*Event) {
	var victims []*Subscription
	for _, sub := range b.subs {
		overflowed := false
		for _, ev := range events {
			if ev.Token.LSN <= sub.gate {
				continue // covered by the subscription's replay source
			}
			if sub.filter != nil && !sub.filter(ev) {
				continue
			}
			select {
			case sub.ch <- ev:
				b.delivered.Add(1)
			default:
				overflowed = true
			}
			if overflowed {
				victims = append(victims, sub)
				break
			}
		}
	}
	for _, sub := range victims {
		b.dropped.Add(1)
		b.removeLocked(sub)
		sub.fail(ErrSlowConsumer)
	}
}

// removeLocked unregisters a subscription and releases its interest
// reference. The caller holds b.mu.
func (b *Broker) removeLocked(sub *Subscription) {
	if _, ok := b.subs[sub.id]; ok {
		delete(b.subs, sub.id)
		b.subCount.Add(-1)
		b.interestMu.Lock()
		key := interestKey(sub.scopeDB, sub.scopeColl)
		if b.interest[key]--; b.interest[key] <= 0 {
			delete(b.interest, key)
		}
		b.interestMu.Unlock()
	}
}

// unsubscribe unregisters a subscription (watcher Close path).
func (b *Broker) unsubscribe(sub *Subscription) {
	b.mu.Lock()
	b.removeLocked(sub)
	b.mu.Unlock()
}

// Close invalidates every subscription and refuses further subscribes. The
// server closes the broker before closing the WAL so no publish or replay
// can race the log teardown.
func (b *Broker) Close() {
	b.mu.Lock()
	subs := make([]*Subscription, 0, len(b.subs))
	for _, sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[int64]*Subscription)
	b.subCount.Store(0)
	b.interestMu.Lock()
	b.interest = make(map[string]int)
	b.interestMu.Unlock()
	b.pending = make(map[int64][]*Event)
	b.closed = true
	b.mu.Unlock()
	for _, sub := range subs {
		sub.fail(ErrClosed)
	}
}

// SubscribeOptions configures one watcher.
type SubscribeOptions struct {
	// DB and Coll scope the watcher's interest for the write path's
	// materialization skip: batch records outside every watcher's scope
	// are not turned into events at all. Empty DB watches the whole
	// server; empty Coll the whole database. The scope must be at least
	// as wide as what Filter accepts.
	DB   string
	Coll string
	// Resume, when non-nil, replays history strictly after the token
	// before switching to the live tail. Nil starts at the live edge.
	Resume *Token
	// Filter, when non-nil, selects the events the watcher receives. It
	// runs on the publish path (under the broker lock) and on the replay
	// path (on the consumer goroutine), so it must be safe for concurrent
	// use and must not block.
	Filter func(*Event) bool
	// BufferSize bounds the live buffer; 0 uses DefaultBufferSize.
	BufferSize int
}

// Subscribe attaches a watcher.
func (b *Broker) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	buffer := opts.BufferSize
	if buffer <= 0 {
		buffer = DefaultBufferSize
	}
	sub := &Subscription{
		b:         b,
		scopeDB:   opts.DB,
		scopeColl: opts.Coll,
		filter:    opts.Filter,
		ch:        make(chan *Event, buffer),
		dead:      make(chan struct{}),
	}
	// Registration, the interest/subscriber-count raise and the join-point
	// read happen under one broker lock acquisition, in that order. Two
	// ordering properties follow, and both are load-bearing:
	//
	//   - A writer whose record's LSN exceeds the join point acquired the
	//     WAL mutex after the LastLSN read below, therefore after the
	//     raises, so its post-append WantsEvents check materializes the
	//     events this watcher needs.
	//   - Any Publish of such a record acquires b.mu after this critical
	//     section, so the watcher is already in b.subs and receives it
	//     live. Records at or before the join point come from disk
	//     instead. Either way no event is lost.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.subCount.Add(1)
	b.interestMu.Lock()
	b.interest[interestKey(opts.DB, opts.Coll)]++
	b.interestMu.Unlock()
	gate := b.w.LastLSN()
	sub.gate = gate
	sub.last = Token{LSN: gate, Op: opEnd}
	b.nextID++
	sub.id = b.nextID
	b.subs[sub.id] = sub
	b.mu.Unlock()

	if opts.Resume != nil {
		tok := *opts.Resume
		if tok.LSN > gate {
			sub.Close()
			return nil, fmt.Errorf("changestream: resume token %s is beyond the end of the log (lsn %d)", tok, gate)
		}
		sub.last = tok
		if tok.next() <= gate {
			replay, err := newReplay(b.w, tok, gate)
			if err != nil {
				sub.Close()
				return nil, err
			}
			sub.replay = replay
		}
	}
	return sub, nil
}

// Subscription is one watcher's stream: an optional disk-replay prefix
// followed by the live tail. It is not safe for concurrent use by multiple
// goroutines (one consumer per subscription).
type Subscription struct {
	b         *Broker
	id        int64
	gate      int64 // join point: live events are strictly after it
	scopeDB   string
	scopeColl string
	filter    func(*Event) bool

	ch   chan *Event
	dead chan struct{}

	failOnce sync.Once
	reason   atomic.Pointer[error]

	replay *replay
	last   Token // resume token of the last delivered event (consumer-owned)
}

var _ Stream = (*Subscription)(nil)

// Alive implements Stream: false once the subscription died or was closed.
func (s *Subscription) Alive() bool {
	select {
	case <-s.dead:
		return false
	default:
		return true
	}
}

// fail marks the subscription dead with a reason, waking any blocked Next.
func (s *Subscription) fail(reason error) {
	s.failOnce.Do(func() {
		s.reason.Store(&reason)
		close(s.dead)
	})
}

func (s *Subscription) failReason() error {
	if p := s.reason.Load(); p != nil {
		return *p
	}
	return ErrClosed
}

// Next implements Stream. The replay prefix (resume) drains first; buffered
// live events are delivered even after invalidation, so nothing already
// enqueued is lost; then the terminal error surfaces.
func (s *Subscription) Next(maxWait time.Duration) (*Event, error) {
	if !s.Alive() {
		// With the replay phase finished, deliver what the publisher
		// enqueued before the failure, then surface the terminal error.
		// Mid-replay the buffered live events must NOT be delivered: they
		// sit beyond the join point while replay history below it is
		// still undelivered, so handing them out would advance the resume
		// token past a gap. Cutting the replay short with the error keeps
		// the token at the last delivered position — resumable without
		// loss.
		if s.replay == nil {
			select {
			case ev := <-s.ch:
				s.last = ev.Token
				return ev, nil
			default:
			}
		}
		return nil, s.failReason()
	}
	if s.replay != nil {
		ev, err := s.replay.next(s.filter)
		if err != nil {
			s.Close()
			return nil, err
		}
		if ev != nil {
			s.last = ev.Token
			return ev, nil
		}
		s.replay = nil // history exhausted: switch to the live tail
	}
	select {
	case ev := <-s.ch:
		s.last = ev.Token
		return ev, nil
	default:
	}
	if maxWait <= 0 {
		if !s.Alive() {
			return nil, s.failReason()
		}
		return nil, nil
	}
	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case ev := <-s.ch:
		s.last = ev.Token
		return ev, nil
	case <-s.dead:
		// Drain what the publisher enqueued before the failure.
		select {
		case ev := <-s.ch:
			s.last = ev.Token
			return ev, nil
		default:
		}
		return nil, s.failReason()
	case <-timer.C:
		return nil, nil
	}
}

// ResumeToken implements Stream.
func (s *Subscription) ResumeToken() string { return s.last.String() }

// Close implements Stream: it detaches the watcher and releases its buffer.
// Unlike Next, it may be called from a different goroutine (a merged
// stream's teardown closes shard subscriptions while their pumps are parked
// in Next), so it must not touch consumer-owned state like the replay
// reader.
func (s *Subscription) Close() {
	s.b.unsubscribe(s)
	s.fail(ErrClosed)
}

// replay is the lazily-read disk history of a resumed subscription: the WAL
// segments overlapping (token, gate], read one segment at a time.
type replay struct {
	segs  []wal.SegmentFile
	after Token
	gate  int64
	buf   []*Event
	idx   int
}

// newReplay flushes the log (so every record up to the join point is
// readable from the segment files) and positions a reader after the token,
// verifying the history is still on disk.
func newReplay(w *wal.WAL, after Token, gate int64) (*replay, error) {
	if err := w.Flush(); err != nil {
		return nil, err
	}
	segs, err := wal.SegmentFiles(w.Dir())
	if err != nil {
		return nil, err
	}
	// The resume needs every record from after.next() through gate; if the
	// first retained segment starts beyond that, a checkpoint pruned the
	// token's history away.
	if len(segs) == 0 || segs[0].FirstLSN > after.next() {
		return nil, ErrTokenTooOld
	}
	// Skip segments that end before the resume position: segment i covers
	// [first_i, first_{i+1}-1].
	start := 0
	for start+1 < len(segs) && segs[start+1].FirstLSN <= after.next() {
		start++
	}
	return &replay{segs: segs[start:], after: after, gate: gate}, nil
}

// next returns the next filtered replay event, or (nil, nil) once the replay
// source is exhausted and the subscription should switch to the live tail.
func (r *replay) next(filter func(*Event) bool) (*Event, error) {
	for {
		for r.idx < len(r.buf) {
			ev := r.buf[r.idx]
			r.idx++
			if filter == nil || filter(ev) {
				return ev, nil
			}
		}
		if len(r.segs) == 0 {
			return nil, nil
		}
		seg := r.segs[0]
		r.segs = r.segs[1:]
		if seg.FirstLSN > r.gate {
			r.segs = nil
			return nil, nil
		}
		recs, err := wal.ReadSegmentFile(seg.Path)
		if err != nil {
			if os.IsNotExist(err) {
				// A checkpoint pruned the segment between listing and
				// reading: the history is gone mid-resume.
				return nil, ErrTokenTooOld
			}
			return nil, err
		}
		r.buf, r.idx = r.buf[:0], 0
		for _, rec := range recs {
			if rec.LSN > r.gate {
				break
			}
			if rec.LSN < r.after.LSN {
				continue
			}
			for _, ev := range EventsFromRecord(rec, false) {
				if rec.LSN == r.after.LSN && ev.Token.Op <= r.after.Op {
					continue
				}
				r.buf = append(r.buf, ev)
			}
		}
	}
}
