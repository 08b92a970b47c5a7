package replset

import (
	"testing"
	"time"

	"docstore/internal/bson"
)

// TestHealthTracksLagAndApplyAge pins the replication-health snapshot with
// an injected clock: lag is the LSN delta to the tip, apply age is wall time
// since the member last advanced, and the primary reports zero lag by
// construction.
func TestHealthTracksLagAndApplyAge(t *testing.T) {
	rs := newTestSet(t, 3)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := base
	rs.SetClock(func() time.Time { return now })

	for i := 0; i < 5; i++ {
		if _, err := rs.Insert("db", "c", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(3 * time.Second)

	h := rs.Health()
	if len(h) != 3 {
		t.Fatalf("health members = %d, want 3", len(h))
	}
	if !h[0].Primary || h[0].Member != "A" {
		t.Fatalf("first member = %+v, want primary A", h[0])
	}
	if h[0].Lag != 0 {
		t.Fatalf("primary lag = %d, want 0", h[0].Lag)
	}
	if h[0].LastApply != base || h[0].ApplyAge != 3*time.Second {
		t.Fatalf("primary apply age = %v (last %v), want 3s since %v", h[0].ApplyAge, h[0].LastApply, base)
	}
	for _, m := range h[1:] {
		if m.Primary {
			t.Fatalf("member %s claims primary", m.Member)
		}
		if m.Lag != 5 {
			t.Fatalf("unsynced secondary %s lag = %d, want 5", m.Member, m.Lag)
		}
		if !m.LastApply.IsZero() || m.ApplyAge != 0 {
			t.Fatalf("secondary %s has apply age %v before any apply", m.Member, m.ApplyAge)
		}
	}

	// The appliers catch the secondaries up: lag collapses to zero everywhere
	// and their apply stamps take the clock at catch-up time.
	rs.StartReplication()
	defer rs.Close()
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	syncedAt := now
	now = now.Add(time.Second)
	for _, m := range rs.Health() {
		if m.Lag != 0 {
			t.Fatalf("member %s lag after sync = %d", m.Member, m.Lag)
		}
		if m.Member != "A" && (m.LastApply != syncedAt || m.ApplyAge != time.Second) {
			t.Fatalf("member %s apply age = %v (last %v), want 1s since %v", m.Member, m.ApplyAge, m.LastApply, syncedAt)
		}
	}
}

// TestHealthDocsAndGauges checks both render layers over the same snapshot:
// the serverStatus documents carry name/state/lag and the Prometheus gauges
// carry one labeled series triple per member.
func TestHealthDocsAndGauges(t *testing.T) {
	rs := newTestSet(t, 2)
	rs.SetClock(func() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) })
	if _, err := rs.Insert("db", "c", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}

	docs := rs.HealthDocs()
	if len(docs) != 2 {
		t.Fatalf("health docs = %d, want 2", len(docs))
	}
	if state, _ := docs[0].Get("state"); state != "primary" {
		t.Fatalf("member A state = %v", state)
	}
	if state, _ := docs[1].Get("state"); state != "secondary" {
		t.Fatalf("member B state = %v", state)
	}
	if lag, _ := docs[1].Get("lag"); lag != int64(1) {
		t.Fatalf("member B lag doc = %v, want 1", lag)
	}

	gauges := rs.HealthGauges()
	if len(gauges) != 6 {
		t.Fatalf("gauges = %d, want 3 per member", len(gauges))
	}
	var lagB int64 = -1
	for _, g := range gauges {
		if len(g.Labels) != 4 || g.Labels[0] != "member" || g.Labels[2] != "set" || g.Labels[3] != "rs0" {
			t.Fatalf("gauge labels = %v", g.Labels)
		}
		if g.Name == "docstore_replset_member_lag" && g.Labels[1] == "B" {
			lagB = g.Value
		}
	}
	if lagB != 1 {
		t.Fatalf("member B lag gauge = %d, want 1", lagB)
	}
}
