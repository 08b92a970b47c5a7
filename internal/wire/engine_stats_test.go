package wire

import (
	"testing"

	"docstore/internal/bson"
)

// TestWireStatsReportsEngineAndCursorRetention drives the stuck-cursor
// diagnosis loop an operator runs from docstore-shell: open a cursor, let a
// write stream publish versions past it, and ask serverStatus which cursor
// is retaining memory. The stats document must carry the MVCC engine gauges
// and list the open cursor with its namespace.
func TestWireStatsReportsEngineAndCursorRetention(t *testing.T) {
	_, client := cursorTestServer(t, 300)

	// The stuck cursor: first batch pulled, never drained or killed.
	cur, err := client.FindCursor("db", "rows", nil, nil, 0, 20)
	if err != nil {
		t.Fatal(err)
	}

	// A single-doc update stream the pinned snapshot cannot observe.
	for i := 0; i < 200; i++ {
		if _, err := client.Update("db", "rows", bson.D(bson.IDKey, 7),
			bson.D("$set", bson.D("v", 1000+i)), false, false); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := client.Stats("db")
	if err != nil {
		t.Fatal(err)
	}
	engineVal, ok := stats.Get("engine")
	if !ok {
		t.Fatalf("stats document has no engine gauges: %v", stats)
	}
	engine := engineVal.(*bson.Doc)
	intGauge := func(name string) int64 {
		v, ok := engine.Get(name)
		if !ok {
			t.Fatalf("engine gauges missing %q: %v", name, engine)
		}
		n, ok := v.(int64)
		if !ok {
			t.Fatalf("engine gauge %q = %T(%v), want int64", name, v, v)
		}
		return n
	}
	if n := intGauge("liveVersions"); n < 2 {
		t.Fatalf("engine.liveVersions = %d with a stuck cursor, want >= 2", n)
	}
	if n := intGauge("pinnedSnapshots"); n < 1 {
		t.Fatalf("engine.pinnedSnapshots = %d with a stuck cursor, want >= 1", n)
	}
	if n := intGauge("cowBytesCopied"); n <= 0 {
		t.Fatalf("engine.cowBytesCopied = %d after 200 updates, want > 0", n)
	}
	if n := intGauge("pageSizeRecords"); n <= 0 {
		t.Fatalf("engine.pageSizeRecords = %d, want > 0", n)
	}

	// The cursor list names the suspect: one open result cursor on db.rows.
	cursorsVal, ok := stats.Get("openCursors")
	if !ok {
		t.Fatalf("stats document has no openCursors list: %v", stats)
	}
	cursors := cursorsVal.([]any)
	if len(cursors) != 1 {
		t.Fatalf("openCursors lists %d cursors, want 1", len(cursors))
	}
	entry := cursors[0].(*bson.Doc)
	if ns, _ := entry.Get("ns"); ns != "db.rows" {
		t.Fatalf("openCursors[0].ns = %v, want db.rows", ns)
	}
	if kind, _ := entry.Get("kind"); kind != "result" {
		t.Fatalf("openCursors[0].kind = %v, want result", kind)
	}
	if _, ok := entry.Get("cursorId"); !ok {
		t.Fatalf("openCursors[0] has no cursorId: %v", entry)
	}
	if _, ok := entry.Get("idleMS"); !ok {
		t.Fatalf("openCursors[0] has no idleMS: %v", entry)
	}

	// Killing the cursor clears the list: the retention suspect is gone.
	cur.Close()
	stats, err = client.Stats("db")
	if err != nil {
		t.Fatal(err)
	}
	cursorsVal, _ = stats.Get("openCursors")
	if cursors, _ := cursorsVal.([]any); len(cursors) != 0 {
		t.Fatalf("openCursors lists %d cursors after kill, want 0", len(cursors))
	}
	// And the gauges drop the retention with it.
	engineVal, _ = stats.Get("engine")
	engine = engineVal.(*bson.Doc)
	if n := intGauge("liveVersions"); n != 1 {
		t.Fatalf("engine.liveVersions = %d after kill, want 1", n)
	}
	if n := intGauge("pinnedSnapshots"); n != 0 {
		t.Fatalf("engine.pinnedSnapshots = %d after kill, want 0", n)
	}
}
