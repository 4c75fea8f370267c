package fleet_test

import (
	"runtime"
	"testing"

	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
)

// prop: a vote-only session (recall store, adapted matrix clone, five
// counters) holds at most 1,000 B of live heap.
func TestSessionHeapBudget(t *testing.T) {
	const sessions, budget = 10000, 1000
	// A cap of twice the sessions keeps every shard clear of eviction.
	mgr := fleet.NewManager(fleet.Config{Registry: fleettest.NewRegistry(), MaxSessions: 2 * sessions, Workers: 1})
	defer mgr.Close()
	// Build the shared model before the baseline: only sessions are measured.
	if _, err := mgr.Registry().Get("MHEALTH"); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < sessions; i++ {
		if _, err := mgr.Create("MHEALTH", int64(i), fleet.Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if mgr.ActiveSessions() != sessions {
		t.Fatalf("%d sessions live, want %d", mgr.ActiveSessions(), sessions)
	}
	perSession := (float64(ms.HeapAlloc) - float64(before)) / sessions
	t.Logf("live heap per session: %.0f B", perSession)
	if perSession > budget {
		t.Fatalf("live heap per session %.0f B exceeds the %d B budget", perSession, budget)
	}
}
