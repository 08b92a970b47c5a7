package replset

import (
	"time"

	"docstore/internal/bson"
	"docstore/internal/metrics"
)

// MemberHealth is one member's replication health: its position in the
// oplog, how far behind the tip it is, and when it last made progress.
type MemberHealth struct {
	// Member is the member server's name; Primary marks the current
	// primary.
	Member  string
	Primary bool
	// Applied is the member's last applied oplog sequence; Lag is the tip
	// minus Applied (the LSN delta a catch-up must close), clamped at 0 for
	// a rolled-back member awaiting resync.
	Applied int64
	Lag     int64
	// LastApply is when Applied last advanced (zero before any apply);
	// ApplyAge is now minus LastApply, 0 when LastApply is zero. A small
	// Lag with a large ApplyAge means the member is caught up but the set
	// is idle; a growing Lag with a growing ApplyAge means the applier is
	// stuck.
	LastApply time.Time
	ApplyAge  time.Duration
	// Down marks a member killed by fault injection.
	Down bool
}

// Health snapshots every member's replication health, in member order. The
// primary reports zero lag by construction (its applied watermark IS the
// tip it defines).
func (rs *ReplicaSet) Health() []MemberHealth {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	now := rs.now()
	tip := rs.tipLocked()
	out := make([]MemberHealth, 0, len(rs.members))
	for i, m := range rs.members {
		name := m.Name()
		h := MemberHealth{
			Member:    name,
			Primary:   i == rs.primary,
			Applied:   rs.applied[name],
			LastApply: rs.lastApply[name],
			Down:      rs.down[name],
		}
		if lag := tip - h.Applied; lag > 0 {
			h.Lag = lag
		}
		if !h.LastApply.IsZero() {
			if age := now.Sub(h.LastApply); age > 0 {
				h.ApplyAge = age
			}
		}
		out = append(out, h)
	}
	return out
}

// HealthDocs renders Health as wire documents: the serverStatus "repl"
// member list, which driver.NewReplicated's deployment reports as its
// Members.
func (rs *ReplicaSet) HealthDocs() []*bson.Doc {
	health := rs.Health()
	out := make([]*bson.Doc, 0, len(health))
	for _, h := range health {
		state := "secondary"
		if h.Primary {
			state = "primary"
		}
		if h.Down {
			state = "down"
		}
		doc := bson.D(
			"name", h.Member,
			"state", state,
			"applied", h.Applied,
			"lag", h.Lag,
			"applyAgeUS", int64(h.ApplyAge/time.Microsecond),
		)
		out = append(out, doc)
	}
	return out
}

// HealthGauges renders Health as labeled Prometheus gauges, one series per
// member: docstored registers it as a gauge source so /metrics exports
// per-member replication lag and apply age.
func (rs *ReplicaSet) HealthGauges() []metrics.Gauge {
	health := rs.Health()
	out := make([]metrics.Gauge, 0, 3*len(health))
	for _, h := range health {
		labels := []string{"member", h.Member, "set", rs.name}
		out = append(out,
			metrics.Gauge{Name: "docstore_replset_member_lag", Value: h.Lag, Labels: labels},
			metrics.Gauge{Name: "docstore_replset_member_applied", Value: h.Applied, Labels: labels},
			metrics.Gauge{Name: "docstore_replset_member_apply_age_ns", Value: int64(h.ApplyAge), Unit: "ns", Labels: labels},
		)
	}
	return out
}

// SetClock replaces the set's wall clock; tests inject one so lag ages are
// deterministic without sleeping.
func (rs *ReplicaSet) SetClock(now func() time.Time) {
	rs.mu.Lock()
	rs.now = now
	rs.mu.Unlock()
}
