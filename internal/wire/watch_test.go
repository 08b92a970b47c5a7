package wire

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
)

// fakeClock is the injectable cursor-idle clock of the wire server: tests
// advance it explicitly instead of sleeping, so idle-reaping behaviour is
// deterministic under any scheduler load.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// watchTestServer builds a durable backend behind a wire server and a
// connected client, with a fake idle clock installed before the server
// starts (so tests can advance it without racing the connection goroutines).
func watchTestServer(t *testing.T) (*mongod.Server, *Server, *Client, *fakeClock) {
	t.Helper()
	backend := mongod.NewServer(mongod.Options{})
	if _, err := backend.EnableDurability(mongod.Durability{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.CloseDurability() })
	srv := NewServer(backend)
	clock := newFakeClock()
	srv.now = clock.Now
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return backend, srv, client, clock
}

// TestWireWatchLiveTail opens a change stream over TCP, writes through the
// same client, and pages events with awaitData getMores.
func TestWireWatchLiveTail(t *testing.T) {
	_, _, client, _ := watchTestServer(t)
	cur, err := client.Watch("app", "rows", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	for i := 0; i < 3; i++ {
		if err := client.Insert("app", "rows", bson.D(bson.IDKey, i, "v", i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		ev, err := cur.Next(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			t.Fatalf("event %d: awaitData timed out", i)
		}
		if op, _ := ev.Get("operationType"); op != "insert" {
			t.Fatalf("event %d: %v", i, ev)
		}
		id, _ := bson.AsInt(ev.GetOr("documentKey", bson.D()).(*bson.Doc).GetOr(bson.IDKey, nil))
		if id != int64(i) {
			t.Fatalf("event %d carries documentKey %d", i, id)
		}
	}
	// Quiet stream: an awaitData getMore returns an empty batch, not an
	// error, and the cursor stays open.
	ev, err := cur.Next(50 * time.Millisecond)
	if err != nil || ev != nil {
		t.Fatalf("quiet stream: %v %v", ev, err)
	}
	if cur.ResumeToken() == "" {
		t.Fatal("no resume token after events")
	}
}

// TestWireWatchResumeByToken consumes part of a stream, kills it, and
// resumes from the token over a fresh watch: no loss, no duplicates.
func TestWireWatchResumeByToken(t *testing.T) {
	_, _, client, _ := watchTestServer(t)
	cur, err := client.Watch("app", "rows", nil, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 6
	for i := 0; i < total; i++ {
		if err := client.Insert("app", "rows", bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	for len(got) < total/2 {
		ev, err := cur.Next(2 * time.Second)
		if err != nil || ev == nil {
			t.Fatalf("first stream: %v %v", ev, err)
		}
		id, _ := bson.AsInt(ev.GetOr("documentKey", bson.D()).(*bson.Doc).GetOr(bson.IDKey, nil))
		got = append(got, id)
	}
	token := cur.ResumeToken()
	cur.Close()

	resumed, err := client.Watch("app", "rows", nil, token, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for len(got) < total {
		ev, err := resumed.Next(2 * time.Second)
		if err != nil || ev == nil {
			t.Fatalf("resumed stream: %v %v", ev, err)
		}
		id, _ := bson.AsInt(ev.GetOr("documentKey", bson.D()).(*bson.Doc).GetOr(bson.IDKey, nil))
		got = append(got, id)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("resume lost or duplicated events: %v", got)
		}
	}
}

// TestWireKillCursorsTearsDownSubscription is the teardown satellite: a
// killCursors on a tailable change-stream cursor must release the broker
// subscription and leak neither a watcher goroutine nor its buffer.
func TestWireKillCursorsTearsDownSubscription(t *testing.T) {
	backend, srv, client, _ := watchTestServer(t)
	// One round trip first: the server starts the connection's handler
	// goroutine when it accepts, which can be after Dial has returned, and
	// the baseline must include it.
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	cur, err := client.Watch("app", "rows", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := backend.ChangeStreams().Stats(); st.Watchers != 1 {
		t.Fatalf("watchers before kill: %d", st.Watchers)
	}
	if srv.OpenCursors() != 1 {
		t.Fatalf("open cursors before kill: %d", srv.OpenCursors())
	}
	cur.Close() // issues killCursors
	if st := backend.ChangeStreams().Stats(); st.Watchers != 0 {
		t.Fatalf("killCursors leaked the subscription: %d watchers", st.Watchers)
	}
	if srv.OpenCursors() != 0 {
		t.Fatalf("killCursors leaked the cursor: %d open", srv.OpenCursors())
	}
	// Writes after the kill must not accumulate anywhere for the dead
	// watcher (its buffer is detached from the broker).
	for i := 0; i < 50; i++ {
		if err := client.Insert("app", "rows", bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := backend.ChangeStreams().Stats(); st.EventsDelivered != 0 {
		t.Fatalf("events delivered to a dead watcher: %+v", st)
	}
	// No watcher goroutine may outlive the stream. Allow the runtime a
	// moment to retire transient goroutines before judging.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before watch, %d after kill", before, n)
	}
}

// TestWireWatchExemptFromReaper checks a live change-stream cursor survives
// idle reaping indefinitely (tailable cursors are idle by design) while a
// plain abandoned cursor ages out — driven by the injectable clock, no
// sleeping.
func TestWireWatchExemptFromReaper(t *testing.T) {
	_, srv, client, clock := watchTestServer(t)

	wcur, err := client.Watch("app", "rows", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wcur.Close()
	for i := 0; i < 30; i++ {
		if err := client.Insert("app", "rows", bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := client.Do(&Request{Op: OpFind, DB: "app", Collection: "rows", BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CursorID == 0 {
		t.Fatal("expected an open find cursor")
	}
	if n := srv.OpenCursors(); n != 2 {
		t.Fatalf("open cursors: %d", n)
	}

	clock.Advance(DefaultCursorTimeout + time.Minute)
	if n := srv.ReapIdleCursors(); n != 1 {
		t.Fatalf("after reap: %d cursors (want only the live change stream)", n)
	}
	if _, err := client.Do(&Request{Op: OpGetMore, DB: "app", CursorID: resp.CursorID}); err == nil {
		t.Fatal("reaped find cursor should be gone")
	}
	// The exempt watch cursor still serves events (the getMore also
	// refreshes its idle clock).
	ev, err := wcur.Next(2 * time.Second)
	if err != nil || ev == nil {
		t.Fatalf("watch cursor after reap: %v %v", ev, err)
	}

	// A watcher whose client stops polling entirely is NOT exempt forever:
	// past the tailable multiple it is reaped, releasing the subscription.
	clock.Advance(TailableCursorTimeoutMultiple*DefaultCursorTimeout + time.Minute)
	if n := srv.ReapIdleCursors(); n != 0 {
		t.Fatalf("abandoned tailable cursor survived the extended window: %d cursors", n)
	}
}

// TestWireKillCursorsDuringParkedGetMore kills a change-stream cursor while
// a getMore is parked in its awaitData wait: the kill must find the cursor
// (it stays registered while in use), unblock the wait, and leave no
// subscription behind.
func TestWireKillCursorsDuringParkedGetMore(t *testing.T) {
	backend, srv, client, _ := watchTestServer(t)
	cur, err := client.Watch("app", "rows", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Park a getMore on a second connection (the first is busy with it).
	addr := srv.listener.Addr().String()
	second, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	parked := make(chan error, 1)
	go func() {
		_, err := second.Do(&Request{Op: OpGetMore, DB: "app", CursorID: cur.id, MaxTimeMS: 5000})
		parked <- err
	}()
	// Wait for the getMore to actually park (cursor marked in-use).
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.cursorMu.Lock()
		oc, ok := srv.cursors[cur.id]
		inUse := ok && oc.inUse
		srv.cursorMu.Unlock()
		if inUse {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("getMore never parked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cur.Close() // killCursors from the first connection
	if err := <-parked; err == nil {
		t.Fatal("parked getMore should observe the kill")
	}
	if st := backend.ChangeStreams().Stats(); st.Watchers != 0 {
		t.Fatalf("kill during parked getMore leaked the subscription: %d watchers", st.Watchers)
	}
	if srv.OpenCursors() != 0 {
		t.Fatalf("kill during parked getMore leaked the cursor: %d", srv.OpenCursors())
	}
}

// TestWatchCursorCloseTerminatesNext checks a closed client cursor reports
// a terminal error from Next (not the "quiet stream" nil/nil, which would
// spin a poll loop forever), and that a resume token captured mid-batch
// resumes after exactly the consumed events.
func TestWatchCursorCloseTerminatesNext(t *testing.T) {
	_, _, client, _ := watchTestServer(t)
	cur, err := client.Watch("app", "rows", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if _, err := cur.Next(10 * time.Millisecond); err == nil {
		t.Fatal("Next after Close should report a terminal error")
	}

	// A resumed watch whose first reply carries a replay batch must not
	// advance ResumeToken past the unconsumed batch.
	for i := 0; i < 4; i++ {
		if err := client.Insert("app", "rows", bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	start := "000000000000000000000000" // the zero token: from the beginning
	resumed, err := client.Watch("app", "rows", nil, start, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.ResumeToken(); got != start {
		t.Fatalf("token advanced past an unconsumed first batch: %s", got)
	}
	ev, err := resumed.Next(time.Second)
	if err != nil || ev == nil {
		t.Fatalf("first replay event: %v %v", ev, err)
	}
	if id, _ := ev.Get("_id"); resumed.ResumeToken() != id {
		t.Fatalf("token %s does not track the consumed event %v", resumed.ResumeToken(), id)
	}
}

// TestWireWatchPipelineAndErrors drives the $match passthrough and the
// error paths: watch without durability and a bad resume token.
func TestWireWatchPipelineAndErrors(t *testing.T) {
	_, _, client, _ := watchTestServer(t)
	cur, err := client.Watch("app", "rows", []*bson.Doc{
		bson.D("$match", bson.D("fullDocument.keep", true)),
	}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if err := client.Insert("app", "rows", bson.D(bson.IDKey, 1, "keep", false)); err != nil {
		t.Fatal(err)
	}
	if err := client.Insert("app", "rows", bson.D(bson.IDKey, 2, "keep", true)); err != nil {
		t.Fatal(err)
	}
	ev, err := cur.Next(2 * time.Second)
	if err != nil || ev == nil {
		t.Fatalf("filtered stream: %v %v", ev, err)
	}
	id, _ := bson.AsInt(ev.GetOr("documentKey", bson.D()).(*bson.Doc).GetOr(bson.IDKey, nil))
	if id != 2 {
		t.Fatalf("filter leaked: %v", ev)
	}

	if _, err := client.Watch("app", "rows", nil, "not-a-token", 0); err == nil {
		t.Fatal("bad resume token should be rejected")
	}

	plain := mongod.NewServer(mongod.Options{})
	psrv := NewServer(plain)
	if resp := psrv.Handle(&Request{Op: OpWatch, DB: "app", Collection: "rows"}); resp.Error == "" {
		t.Fatal("watch without durability should fail")
	}
}
