package mongos

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/mongod"
)

// pumpPoll is how long a shard pump parks in the shard stream's Next before
// re-checking for teardown; pump exit is normally driven by the shard
// subscription dying, so the poll only bounds teardown of an idle stream.
const pumpPoll = 250 * time.Millisecond

// Watch opens a cluster-wide change stream over the named collection (coll
// == "" watches the whole database): one per-shard stream on every shard,
// merged into a single ordered feed the way FindCursor merges shard cursors
// — one prefetching pump goroutine per shard. Per-shard event order (the
// shard's LSN order) is preserved; events of different shards interleave
// arbitrarily, which is the strongest guarantee independent per-shard logs
// admit. Every event carries its shard's name in Event.Shard.
//
// resumeAfter accepts the composite token of a previous cluster stream
// (ClusterStream.ResumeToken): each shard resumes exactly after its own
// per-shard position, so the merged stream is exactly-once end to end.
// Shards named in the token must still be registered; every shard requires
// durability (change streams tail the WAL).
func (r *Router) Watch(db, coll string, pipeline []*bson.Doc, resumeAfter string) (*ClusterStream, error) {
	comp, err := changestream.ParseCompositeToken(resumeAfter)
	if err != nil {
		return nil, err
	}
	names := r.ShardNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("mongos: no shards registered")
	}
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		// The composite token encodes shard names unescaped with "=" and
		// "/" as separators; a name containing either would render a
		// token the parser rejects — the stream's own token would be
		// unresumable. Refuse up front instead of failing at resume time.
		if strings.ContainsAny(name, "=/") {
			return nil, fmt.Errorf("mongos: shard name %q cannot appear in a composite resume token (contains '=' or '/')", name)
		}
		registered[name] = true
	}
	for name := range comp {
		if !registered[name] {
			return nil, fmt.Errorf("mongos: resume token names unknown shard %q", name)
		}
	}

	cs := &ClusterStream{
		out:      make(chan *changestream.Event, 4*len(names)),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
		tokens:   changestream.CompositeToken{},
	}
	for _, name := range names {
		r.remoteCall()
		opts := mongod.WatchOptions{Pipeline: pipeline}
		if tok, ok := comp[name]; ok {
			opts.ResumeAfter = tok.String()
		}
		sub, err := r.Shard(name).Watch(db, coll, opts)
		if err != nil {
			cs.Close()
			return nil, fmt.Errorf("mongos: shard %s: %w", name, err)
		}
		start, err := changestream.ParseToken(sub.ResumeToken())
		if err != nil {
			sub.Close()
			cs.Close()
			return nil, fmt.Errorf("mongos: shard %s: %w", name, err)
		}
		// Seed the composite token with every shard's starting position, so
		// a resume before the shard's first event still covers it.
		cs.tokens[name] = start
		cs.subs = append(cs.subs, sub)
		cs.wg.Add(1)
		go cs.pump(name, sub)
	}
	go func() {
		cs.wg.Wait()
		close(cs.finished)
	}()
	return cs, nil
}

// ClusterStream is the merged cluster-wide change stream: one pump goroutine
// per shard forwards that shard's events, in order, into a shared channel.
// It implements changestream.Stream. Not safe for concurrent use by multiple
// consumer goroutines.
type ClusterStream struct {
	out      chan *changestream.Event
	done     chan struct{}
	finished chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	tokens changestream.CompositeToken
	err    error
	subs   []changestream.Stream

	closeOnce sync.Once
}

var _ changestream.Stream = (*ClusterStream)(nil)

// pump forwards one shard's stream into the merge channel until the shard
// stream dies or the merged stream closes.
func (cs *ClusterStream) pump(name string, sub changestream.Stream) {
	defer cs.wg.Done()
	for {
		ev, err := sub.Next(pumpPoll)
		if err != nil {
			// A shard stream dying is terminal for the WHOLE merged
			// stream unless it is our own teardown closing the shard
			// subscriptions: silently continuing with the surviving
			// shards would present a feed that looks healthy while
			// omitting one shard's events forever — whether the shard
			// watcher overflowed (ErrSlowConsumer) or the shard itself
			// shut down (ErrClosed from the shard's broker). The consumer
			// resumes from the composite token.
			select {
			case <-cs.done: // our own Close/teardown: expected
			default:
				cs.mu.Lock()
				if cs.err == nil {
					cs.err = fmt.Errorf("mongos: shard %s: %w", name, err)
				}
				cs.mu.Unlock()
				cs.teardown()
			}
			return
		}
		if ev == nil {
			select {
			case <-cs.done:
				return
			default:
				continue
			}
		}
		// Events are shared with other watchers of the same shard broker:
		// stamp the shard on a copy, and drop the copied doc cache so the
		// rendering includes it.
		stamped := *ev
		stamped.Shard = name
		stamped.ResetDocCache()
		select {
		case cs.out <- &stamped:
		case <-cs.done:
			return
		}
	}
}

// Next implements changestream.Stream: it returns the next merged event,
// waiting up to maxWait, with (nil, nil) on a quiet stream. Once every pump
// has stopped, buffered events drain first and then the terminal error
// surfaces.
func (cs *ClusterStream) Next(maxWait time.Duration) (*changestream.Event, error) {
	select {
	case ev := <-cs.out:
		return cs.deliver(ev), nil
	default:
	}
	if maxWait <= 0 {
		select {
		case <-cs.finished:
			return nil, cs.streamErr()
		default:
			return nil, nil
		}
	}
	timer := time.NewTimer(maxWait)
	defer timer.Stop()
	select {
	case ev := <-cs.out:
		return cs.deliver(ev), nil
	case <-cs.finished:
		select {
		case ev := <-cs.out:
			return cs.deliver(ev), nil
		default:
		}
		return nil, cs.streamErr()
	case <-timer.C:
		return nil, nil
	}
}

// deliver records the event's position in the composite token.
func (cs *ClusterStream) deliver(ev *changestream.Event) *changestream.Event {
	cs.mu.Lock()
	cs.tokens[ev.Shard] = ev.Token
	cs.mu.Unlock()
	return ev
}

func (cs *ClusterStream) streamErr() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.err != nil {
		return cs.err
	}
	return changestream.ErrClosed
}

// ResumeToken implements changestream.Stream: the composite per-shard token
// of everything delivered so far.
func (cs *ClusterStream) ResumeToken() string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.tokens.String()
}

// Alive implements changestream.Stream: false once a shard stream died or
// the merged stream was closed.
func (cs *ClusterStream) Alive() bool {
	select {
	case <-cs.done:
		return false
	default:
		return true
	}
}

// teardown closes every shard stream and stops the pumps without waiting
// them out; a failing pump calls it on itself, so it must not self-join.
func (cs *ClusterStream) teardown() {
	cs.closeOnce.Do(func() {
		close(cs.done)
		cs.mu.Lock()
		subs := cs.subs
		cs.subs = nil
		cs.mu.Unlock()
		for _, sub := range subs {
			sub.Close()
		}
	})
}

// Close implements changestream.Stream: it closes every shard stream, stops
// the pumps and waits them out, so no watcher goroutine or buffer outlives
// the merged stream.
func (cs *ClusterStream) Close() {
	cs.teardown()
	cs.wg.Wait()
}
