package fleet

import (
	"context"
	"errors"
	"testing"
)

// storePair builds two managers (replica A and replica B) sharing one state
// store — the in-process shape of two serving replicas behind a router.
func storePair(t *testing.T) (*Manager, *Manager, *MemStateStore) {
	t.Helper()
	st := NewMemStateStore()
	reg := tinyRegistry()
	a := NewManager(Config{Registry: reg, Workers: 1, State: st})
	b := NewManager(Config{Registry: reg, Workers: 1, State: st})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, st
}

// roundInputs builds a deterministic classify round for slot i.
func roundInputs(i int) []SensorInput {
	return []SensorInput{
		{Sensor: i % 3, Class: (i * 2) % 5, Confidence: 0.02 + float64(i%7)/50},
		{Sensor: (i + 1) % 3, Class: (i * 3) % 5, Confidence: 0.03 + float64(i%5)/40},
	}
}

// driveRound classifies one round on a manager and persists the snapshot —
// the exact sequence the serving layer performs per round.
func driveRound(t *testing.T, m *Manager, id string, i int) ClassifyResult {
	t.Helper()
	res, err := m.Classify(context.Background(), id, roundInputs(i))
	if err != nil {
		t.Fatalf("round %d: %v", i, err)
	}
	if err := m.PersistSession(id, nil); err != nil {
		t.Fatalf("persist round %d: %v", i, err)
	}
	return res
}

// TestManagerMigration proves the externalized-state contract: rounds served
// on replica A, continued on replica B after a simulated A death, classify
// identically to the same rounds served on a single never-migrated session.
func TestManagerMigration(t *testing.T) {
	a, b, _ := storePair(t)

	// Control: one un-migrated session sees all 12 rounds.
	ctrl, err := a.CreateWithID("ctrl", "MHEALTH", 7, Opts{StaleLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want []ClassifyResult
	for i := 0; i < 12; i++ {
		res, err := ctrl.Classify(roundInputs(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Subject: 6 rounds on A, then A "dies" and B adopts from the store.
	if _, err := a.CreateWithID("subj", "MHEALTH", 7, Opts{StaleLimit: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		got := driveRound(t, a, "subj", i)
		if got.Slot != want[i].Slot || got.Class != want[i].Class {
			t.Fatalf("pre-migration round %d: got %+v want %+v", i, got, want[i])
		}
	}
	s, err := b.Get("subj")
	if err != nil {
		t.Fatalf("B.Get after migration: %v", err)
	}
	if s.Slot() != 6 {
		t.Fatalf("restored session at slot %d, want 6", s.Slot())
	}
	if b.Snapshot().SessionsRestored != 1 {
		t.Fatalf("SessionsRestored = %d, want 1", b.Snapshot().SessionsRestored)
	}
	for i := 6; i < 12; i++ {
		got := driveRound(t, b, "subj", i)
		if got.Slot != want[i].Slot || got.Class != want[i].Class {
			t.Fatalf("post-migration round %d: got %+v want %+v", i, got, want[i])
		}
	}

	// The counters travelled: B's view of the session includes A's rounds.
	if c := s.State(nil).Counters; c.Slots != 12 {
		t.Fatalf("migrated counter slots = %d, want 12", c.Slots)
	}
}

// TestManagerStaleCacheRefresh proves local memory is only a cache: when the
// store advances past a replica's in-memory copy (another replica served
// rounds in between), Get discards the stale copy and restores it — and each
// round is counted once fleet-wide, by the replica that served it.
func TestManagerStaleCacheRefresh(t *testing.T) {
	a, b, _ := storePair(t)
	if _, err := a.CreateWithID("x", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	driveRound(t, a, "x", 0)
	driveRound(t, a, "x", 1)

	// B adopts and advances; A's in-memory copy is now stale at slot 2.
	if _, err := b.Get("x"); err != nil {
		t.Fatal(err)
	}
	driveRound(t, b, "x", 2)
	driveRound(t, b, "x", 3)

	s, err := a.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if s.Slot() != 4 {
		t.Fatalf("A served slot %d after refresh, want 4", s.Slot())
	}
	if got := a.Telemetry().Slots + b.Telemetry().Slots; got != 4 {
		t.Fatalf("A slots + B slots = %d, want the 4 rounds served", got)
	}
	if c := s.State(nil).Counters; c.Slots != 4 {
		t.Fatalf("migrated counter slots = %d, want 4", c.Slots)
	}
}

// TestManagerTelemetryCountsEachRoundOnce: each replica's process-wide
// counters hold the rounds it classified, so summing them over the fleet
// counts every round once however the session moved, while the session's
// own counters carry its whole history. A replica that only restored the
// session has served nothing.
func TestManagerTelemetryCountsEachRoundOnce(t *testing.T) {
	a, b, st := storePair(t)
	if _, err := a.CreateWithID("x", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	owners := []*Manager{a, a, a, b, b, a, b}
	for i, m := range owners {
		driveRound(t, m, "x", i)
	}
	ta, tb := a.Telemetry(), b.Telemetry()
	if ta.Slots != 4 || tb.Slots != 3 {
		t.Fatalf("slots A=%d B=%d, want 4 and 3", ta.Slots, tb.Slots)
	}
	stored, ok, err := b.StoredState("x")
	if err != nil || !ok {
		t.Fatalf("StoredState: ok=%v err=%v", ok, err)
	}
	if sum := (SessionCounters{
		Slots:             ta.Slots + tb.Slots,
		FreshVotes:        ta.FreshVotes + tb.FreshVotes,
		RecallVotes:       ta.RecallVotes + tb.RecallVotes,
		AdaptationUpdates: ta.AdaptationUpdates + tb.AdaptationUpdates,
		QuorumAbstentions: ta.QuorumAbstentions + tb.QuorumAbstentions,
	}); sum != stored.Counters {
		t.Fatalf("A+B = %+v, session counters %+v", sum, stored.Counters)
	}

	c := NewManager(Config{Registry: tinyRegistry(), Workers: 1, State: st})
	defer c.Close()
	if _, err := c.Get("x"); err != nil {
		t.Fatal(err)
	}
	if got := c.Telemetry(); got != (SessionCounters{}) {
		t.Fatalf("restore-only replica reports %+v, want zero", got)
	}
	driveRound(t, c, "x", len(owners))
	if got := c.Telemetry().Slots; got != 1 {
		t.Fatalf("replica C slots = %d after one round, want 1", got)
	}
}

// TestManagerEvictionResurrect proves LRU eviction with a store demotes to
// cache eviction: the session's state survives in the store and the next Get
// restores it.
func TestManagerEvictionResurrect(t *testing.T) {
	st := NewMemStateStore()
	m := NewManager(Config{Registry: tinyRegistry(), Shards: 1, MaxSessions: 1, Workers: 1, State: st})
	defer m.Close()
	if _, err := m.CreateWithID("first", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	driveRound(t, m, "first", 0)
	if _, err := m.CreateWithID("second", "MHEALTH", 2, Opts{}); err != nil {
		t.Fatal(err) // evicts "first" from the 1-session shard
	}
	s, err := m.Get("first")
	if err != nil {
		t.Fatalf("Get after eviction: %v", err)
	}
	if s.Slot() != 1 {
		t.Fatalf("resurrected at slot %d, want 1", s.Slot())
	}
}

func TestManagerCreateWithIDConflictsAndDelete(t *testing.T) {
	a, b, store := storePair(t)
	if _, err := a.CreateWithID("dup", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateWithID("dup", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrExists) {
		t.Fatalf("local duplicate: err = %v, want ErrExists", err)
	}
	// The other replica sees the conflict through the store alone.
	if _, err := b.CreateWithID("dup", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrExists) {
		t.Fatalf("cross-replica duplicate: err = %v, want ErrExists", err)
	}
	if _, err := a.CreateWithID("", "MHEALTH", 1, Opts{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty id: err = %v, want ErrInvalid", err)
	}

	// Delete removes the stored snapshot: no replica can resurrect it.
	if err := a.Delete("dup"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store holds %d sessions after delete, want 0", store.Len())
	}
	if _, err := b.Get("dup"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: err = %v, want ErrNotFound", err)
	}
	// Deleting a session known only to the store (not local memory) works.
	if _, err := a.CreateWithID("remote", "MHEALTH", 1, Opts{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("remote"); err != nil {
		t.Fatalf("store-only delete: %v", err)
	}
	if err := b.Delete("remote"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: err = %v, want ErrNotFound", err)
	}
}

// TestManagerRejectsAnotherSessionsSnapshot: when a store key holds a
// snapshot of a different session (two ids aliasing one key), neither a
// restore nor StoredState may hand that session out under the asked-for id.
func TestManagerRejectsAnotherSessionsSnapshot(t *testing.T) {
	a, b, st := storePair(t)
	if _, err := a.CreateWithID("victim", "MHEALTH", 7, Opts{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		driveRound(t, a, "victim", i)
	}
	blob, ver, ok, err := st.Load("victim")
	if err != nil || !ok {
		t.Fatalf("Load(victim): ok=%v err=%v", ok, err)
	}
	if err := st.Put("alias", ver, blob); err != nil {
		t.Fatal(err)
	}
	if s, err := b.Get("alias"); err == nil {
		t.Fatalf("Get(alias) restored session %q at slot %d", s.ID(), s.Slot())
	}
	if got, ok, err := b.StoredState("alias"); err == nil {
		t.Fatalf("StoredState(alias) = session %q ok=%v", got.ID, ok)
	}
	if b.Snapshot().SessionsRestored != 0 {
		t.Fatal("a mismatched snapshot was counted as restored")
	}
	if s, err := b.Get("victim"); err != nil || s.Slot() != 3 {
		t.Fatalf("Get(victim) after the alias attempt: %v", err)
	}
}
