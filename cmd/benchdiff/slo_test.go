package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"origin/internal/obs"
)

// goodSLOReport is a chaos day that passed every bar: faults and pressure
// both fired, nothing was lost, all resumes landed. It planned no shard ops,
// so it needs no kills, joins or migrations.
func goodSLOReport() obs.SLOReport {
	return obs.SLOReport{
		Canonical: obs.SLOCanonical{
			Name: "day", Profile: "MHEALTH", Seed: 5,
			Lineages: 11, ColdStarts: 8, Retired: 8, TotalRounds: 238,
			Phases: []obs.SLOPhase{
				{Name: "rush", Users: 6, Rounds: 10, TotalRounds: 60, Pressure: true, Correct: 50, Accuracy: 50.0 / 60},
				{Name: "storm", Users: 5, Rounds: 10, TotalRounds: 50, Chaos: true, Correct: 40, Accuracy: 0.8},
			},
			Accuracy: obs.SLOAccuracy{Overall: 0.8, Calm: 0.82, Drift: 0.75, CalmRounds: 180, DriftRounds: 58},
			Digest:   "abc123",
		},
		Measured: obs.SLOMeasured{
			DurationS: 1.2, OK: 238, Errors: 0, Shed: 9,
			Reconnects: 3, ResumeAttempts: 3, ResumeMisses: 0, DoubleClassifies: 0,
			ResumeSuccessRate: 1.0, Availability: 0.995, ShedRate: 9.0 / 247,
		},
	}
}

// goodChaosReport is the connection-chaos drill (testdata/chaos_drill.json
// in internal/scenario) having passed: one kill-everything chaos phase,
// faults injected, every round classified exactly once, all resumes landed.
func goodChaosReport() obs.SLOReport {
	return obs.SLOReport{
		Canonical: obs.SLOCanonical{
			Name: "drill", Profile: "MHEALTH", Seed: 1,
			Lineages: 8, ColdStarts: 8, Retired: 8, TotalRounds: 640,
			Phases: []obs.SLOPhase{
				{Name: "drill", Users: 8, Rounds: 80, TotalRounds: 640, Chaos: true, Correct: 512, Accuracy: 0.8},
			},
			Accuracy: obs.SLOAccuracy{Overall: 0.8, Calm: 0.8, CalmRounds: 640},
			Digest:   "drill123",
		},
		Measured: obs.SLOMeasured{
			DurationS: 7.2, OK: 640, Errors: 0,
			Reconnects: 12, ResumeAttempts: 12, ResumeMisses: 0, DoubleClassifies: 0,
			ResumeSuccessRate: 1.0, Availability: 0.998,
		},
	}
}

// goodShardReport is a shard day that passed every bar: the planned kill and
// join both fired, sessions migrated, nothing was lost.
func goodShardReport() obs.SLOReport {
	return obs.SLOReport{
		Canonical: obs.SLOCanonical{
			Name: "shard", Profile: "MHEALTH", Seed: 13,
			Lineages: 6, ColdStarts: 2, Retired: 2, TotalRounds: 96,
			Phases: []obs.SLOPhase{
				{Name: "steady", Users: 4, Rounds: 8, TotalRounds: 32, Correct: 25, Accuracy: 25.0 / 32},
				{Name: "shard-crash", Users: 4, Rounds: 8, TotalRounds: 32, ShardOps: []string{"kill"}, Correct: 24, Accuracy: 0.75},
				{Name: "shard-join", Users: 4, Rounds: 8, TotalRounds: 32, ShardOps: []string{"join"}, Correct: 24, Accuracy: 0.75},
			},
			Accuracy: obs.SLOAccuracy{Overall: 0.76, Calm: 0.76, CalmRounds: 96},
			Digest:   "shard123",
		},
		Measured: obs.SLOMeasured{
			DurationS: 0.8, OK: 96, Errors: 0,
			Reconnects: 2, ResumeAttempts: 2, ResumeMisses: 0, DoubleClassifies: 0,
			ResumeSuccessRate: 1.0, Availability: 0.98,
			ShardKills: 1, ShardJoins: 1, MigratedResumes: 2,
		},
	}
}

func writeSLOReport(t *testing.T, rep obs.SLOReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type sloRejection struct {
	mutate func(*obs.SLOReport)
	want   string
}

// checkSLORejects applies each mutation to a fresh good report and requires
// slo-verify, run with flags, to reject it for the named reason.
func checkSLORejects(t *testing.T, good func() obs.SLOReport, flags []string, cases map[string]sloRejection) {
	t.Helper()
	for name, tc := range cases {
		rep := good()
		tc.mutate(&rep)
		err := cmdSLOVerify(append(flags[:len(flags):len(flags)], writeSLOReport(t, rep)))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestSLOVerifyPasses(t *testing.T) {
	path := writeSLOReport(t, goodSLOReport())
	if err := cmdSLOVerify([]string{path}); err != nil {
		t.Fatalf("clean day rejected: %v", err)
	}
}

func TestSLOVerifyRejects(t *testing.T) {
	checkSLORejects(t, goodSLOReport, nil, map[string]sloRejection{
		"lost rounds":       {func(r *obs.SLOReport) { r.Measured.OK = 237 }, "lost rounds"},
		"errors":            {func(r *obs.SLOReport) { r.Measured.Errors = 1 }, "lost rounds"},
		"double classify":   {func(r *obs.SLOReport) { r.Measured.DoubleClassifies = 1 }, "double-classified"},
		"resume miss":       {func(r *obs.SLOReport) { r.Measured.ResumeMisses = 1; r.Measured.ResumeSuccessRate = 2.0 / 3 }, "resume success rate"},
		"poor availability": {func(r *obs.SLOReport) { r.Measured.Availability = 0.9 }, "availability"},
		"heavy shedding":    {func(r *obs.SLOReport) { r.Measured.ShedRate = 0.5 }, "shed rate"},
		"vacuous chaos":     {func(r *obs.SLOReport) { r.Measured.Reconnects = 0 }, "vacuous"},
		"vacuous pressure":  {func(r *obs.SLOReport) { r.Measured.Shed = 0; r.Measured.ShedRate = 0 }, "vacuous"},
		"empty canonical":   {func(r *obs.SLOReport) { r.Canonical = obs.SLOCanonical{} }, "not an SLO report"},
	})
}

func TestSLOVerifyFlags(t *testing.T) {
	rep := goodSLOReport()
	rep.Measured.Availability = 0.95
	path := writeSLOReport(t, rep)
	if err := cmdSLOVerify([]string{path}); err == nil {
		t.Fatal("0.95 availability passed the default 0.99 bar")
	}
	if err := cmdSLOVerify([]string{"-min-availability", "0.9", path}); err != nil {
		t.Fatalf("relaxed bar rejected: %v", err)
	}
	good := writeSLOReport(t, goodSLOReport())
	if err := cmdSLOVerify([]string{"-min-accuracy", "0.95", good}); err == nil {
		t.Fatal("0.8 accuracy passed a 0.95 bar")
	}
	if err := cmdSLOVerify([]string{"-max-shed-rate", "0.01", good}); err == nil {
		t.Fatal("3.6% shed rate passed a 1% bar")
	}
}

func TestSLOVerifyDeterminismPair(t *testing.T) {
	a := writeSLOReport(t, goodSLOReport())
	if err := cmdSLOVerify([]string{a, a}); err != nil {
		t.Fatalf("identical canonical sections rejected: %v", err)
	}
	twin := goodSLOReport()
	twin.Canonical.Digest = "fff999"
	// A same-seed twin with different measured timings must still pass —
	// only the canonical section is held to byte identity.
	twin.Measured.DurationS = 99
	b := writeSLOReport(t, twin)
	err := cmdSLOVerify([]string{a, b})
	if err == nil {
		t.Fatal("diverged canonical sections accepted")
	}
	if !strings.Contains(err.Error(), "non-deterministic") {
		t.Fatalf("error %q does not mention non-determinism", err)
	}
	same := goodSLOReport()
	same.Measured.DurationS = 42
	c := writeSLOReport(t, same)
	if err := cmdSLOVerify([]string{a, c}); err != nil {
		t.Fatalf("same canonical, different measured rejected: %v", err)
	}
}

// The chaos drill's verdict is slo-verify on the drill's report; its
// anti-vacuity comes from the report's chaos phase, not a flag.
func TestChaosVerifyPasses(t *testing.T) {
	path := writeSLOReport(t, goodChaosReport())
	if err := cmdSLOVerify([]string{path}); err != nil {
		t.Fatalf("clean drill rejected: %v", err)
	}
}

func TestChaosVerifyRejects(t *testing.T) {
	checkSLORejects(t, goodChaosReport, nil, map[string]sloRejection{
		"vacuous drill":     {func(r *obs.SLOReport) { r.Measured.Reconnects = 0 }, "vacuous"},
		"lost rounds":       {func(r *obs.SLOReport) { r.Measured.OK = 639 }, "lost rounds"},
		"errors":            {func(r *obs.SLOReport) { r.Measured.Errors = 1 }, "lost rounds"},
		"double classify":   {func(r *obs.SLOReport) { r.Measured.DoubleClassifies = 2 }, "double-classified"},
		"resume miss":       {func(r *obs.SLOReport) { r.Measured.ResumeMisses = 1; r.Measured.ResumeSuccessRate = 11.0 / 12 }, "resume success rate"},
		"poor availability": {func(r *obs.SLOReport) { r.Measured.Availability = 0.9 }, "availability"},
	})
}

func TestChaosVerifyMinAvailabilityFlag(t *testing.T) {
	rep := goodChaosReport()
	rep.Measured.Availability = 0.95
	path := writeSLOReport(t, rep)
	if err := cmdSLOVerify([]string{path}); err == nil {
		t.Fatal("0.95 availability passed the default 0.99 bar")
	}
	if err := cmdSLOVerify([]string{"-min-availability", "0.9", path}); err != nil {
		t.Fatalf("relaxed bar rejected: %v", err)
	}
	if err := cmdSLOVerify([]string{"-min-availability", "nope", path}); err == nil {
		t.Fatal("bad -min-availability accepted")
	}
}

// shardGateFlags are the bars make verify-shard runs a shard day under.
var shardGateFlags = []string{"-min-availability", "0.9"}

// A shard day's kill, join and migration bars come from the ops its phases
// planned, never from a flag.
func TestShardVerifyPasses(t *testing.T) {
	path := writeSLOReport(t, goodShardReport())
	if err := cmdSLOVerify(append(shardGateFlags, path)); err != nil {
		t.Fatalf("clean shard day rejected: %v", err)
	}
}

func TestShardVerifyRejects(t *testing.T) {
	checkSLORejects(t, goodShardReport, shardGateFlags, map[string]sloRejection{
		"lost rounds":       {func(r *obs.SLOReport) { r.Measured.OK = 95 }, "lost rounds"},
		"errors":            {func(r *obs.SLOReport) { r.Measured.Errors = 1 }, "lost rounds"},
		"double classify":   {func(r *obs.SLOReport) { r.Measured.DoubleClassifies = 1 }, "double-classified"},
		"resume miss":       {func(r *obs.SLOReport) { r.Measured.ResumeMisses = 1; r.Measured.ResumeSuccessRate = 0.5 }, "resume success rate"},
		"no kill":           {func(r *obs.SLOReport) { r.Measured.ShardKills = 0 }, "vacuous"},
		"unexecuted leave":  {func(r *obs.SLOReport) { r.Canonical.Phases[1].ShardOps = []string{"leave", "kill"} }, "vacuous"},
		"no join":           {func(r *obs.SLOReport) { r.Measured.ShardJoins = 0 }, "rebalance"},
		"nothing migrated":  {func(r *obs.SLOReport) { r.Measured.MigratedResumes = 0 }, "moved nothing"},
		"poor availability": {func(r *obs.SLOReport) { r.Measured.Availability = 0.5 }, "availability"},
		"empty canonical":   {func(r *obs.SLOReport) { r.Canonical = obs.SLOCanonical{} }, "not an SLO report"},
	})
}

func TestShardVerifyFlags(t *testing.T) {
	path := writeSLOReport(t, goodShardReport())
	if err := cmdSLOVerify([]string{"-min-availability", "0.99", path}); err == nil {
		t.Fatal("0.98 availability passed a 0.99 bar")
	}
	if err := cmdSLOVerify([]string{"-min-availability", "0.5", path}); err != nil {
		t.Fatalf("relaxed bar rejected: %v", err)
	}
	// Migration anti-vacuity is no longer a knob.
	if err := cmdSLOVerify([]string{"-min-migrated", "1", path}); err == nil {
		t.Fatal("removed -min-migrated flag accepted")
	}
}

// The twin comparison pins topology invariance: the sharded run's canonical
// section must equal the same-seed twin's byte for byte, while the twin's
// measured half (different timings, even no kills) is free to differ.
func TestShardVerifyTopologyInvariancePair(t *testing.T) {
	a := writeSLOReport(t, goodShardReport())
	twin := goodShardReport()
	twin.Measured = obs.SLOMeasured{
		DurationS: 0.3, OK: 96, ResumeSuccessRate: 1, Availability: 1,
	}
	b := writeSLOReport(t, twin)
	if err := cmdSLOVerify(append(shardGateFlags, a, b)); err != nil {
		t.Fatalf("matching canonical sections rejected: %v", err)
	}
	diverged := goodShardReport()
	diverged.Canonical.Digest = "other"
	c := writeSLOReport(t, diverged)
	err := cmdSLOVerify(append(shardGateFlags, a, c))
	if err == nil {
		t.Fatal("diverged canonical sections accepted")
	}
	if !strings.Contains(err.Error(), "topology leaked") {
		t.Fatalf("error %q does not mention topology leakage", err)
	}
}
