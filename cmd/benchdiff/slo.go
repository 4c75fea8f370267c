package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"origin/internal/obs"
)

// SLO gating (slo-verify): the one resilience verdict.
//
// A scenario run (cmd/origin-scenario) writes an SLO report whose canonical
// half is a pure function of the scenario seed and whose measured half holds
// wall-clock observations. slo-verify holds one report to the resilience
// bars — zero lost rounds, zero double classifications, 100% resume
// success, availability and shed-rate bounds — and to non-vacuity read from
// the report's own plan: a chaos phase must actually reconnect, a pressure
// phase must actually shed, planned kills or leaves must all execute and
// migrate at least one session across a shard boundary, and a planned join
// must execute. Given a second report from another same-seed run, it
// additionally gates determinism: the two canonical sections must be
// byte-identical — faults and shard topology shake timing, never decisions.
// (Live-vs-serial equivalence is origin-scenario's -verify-replay.)

const (
	defaultMinAvailability = 0.99
	defaultMaxShedRate     = 0.25
)

func cmdSLOVerify(args []string) error {
	minAvailStr, maxShedStr, minAccStr := "", "", ""
	rest, err := parseFlags(args, map[string]*string{
		"-min-availability": &minAvailStr,
		"-max-shed-rate":    &maxShedStr,
		"-min-accuracy":     &minAccStr,
	})
	if err != nil {
		return err
	}
	minAvail, maxShed, minAcc := defaultMinAvailability, defaultMaxShedRate, 0.0
	if minAvailStr != "" {
		if minAvail, err = strconv.ParseFloat(minAvailStr, 64); err != nil {
			return fmt.Errorf("bad -min-availability: %w", err)
		}
	}
	if maxShedStr != "" {
		if maxShed, err = strconv.ParseFloat(maxShedStr, 64); err != nil {
			return fmt.Errorf("bad -max-shed-rate: %w", err)
		}
	}
	if minAccStr != "" {
		if minAcc, err = strconv.ParseFloat(minAccStr, 64); err != nil {
			return fmt.Errorf("bad -min-accuracy: %w", err)
		}
	}
	if len(rest) < 1 || len(rest) > 2 {
		return fmt.Errorf("slo-verify needs one SLO report (plus an optional same-seed twin)")
	}
	rep, err := readSLOReport(rest[0])
	if err != nil {
		return err
	}
	c, m := &rep.Canonical, &rep.Measured

	var chaosPhases, pressurePhases, kills, joins int
	for _, p := range c.Phases {
		if p.Chaos {
			chaosPhases++
		}
		if p.Pressure {
			pressurePhases++
		}
		for _, op := range p.ShardOps {
			if op == "join" {
				joins++
			} else {
				kills++
			}
		}
	}
	fmt.Printf("benchdiff: slo %q seed=%d lineages=%d ok=%d/%d shed=%d (rate %.4f, max %.4f) reconnects=%d resume=%d/%d availability=%.4f (min %.4f) kills=%d/%d joins=%d/%d migrated=%d accuracy=%.4f drift=%.4f\n",
		c.Name, c.Seed, c.Lineages, m.OK, c.TotalRounds,
		m.Shed, m.ShedRate, maxShed, m.Reconnects,
		m.ResumeAttempts-m.ResumeMisses, m.ResumeAttempts,
		m.Availability, minAvail, m.ShardKills, kills, m.ShardJoins, joins, m.MigratedResumes,
		c.Accuracy.Overall, c.Accuracy.Drift)

	if m.OK != c.TotalRounds || m.Errors != 0 {
		return fmt.Errorf("scenario lost rounds: ok=%d want=%d errors=%d", m.OK, c.TotalRounds, m.Errors)
	}
	if m.DoubleClassifies != 0 {
		return fmt.Errorf("%d round(s) double-classified across reconnects or shard moves", m.DoubleClassifies)
	}
	if m.ResumeSuccessRate != 1.0 {
		return fmt.Errorf("resume success rate %.4f, want 1.0 (%d miss(es) in %d attempts)",
			m.ResumeSuccessRate, m.ResumeMisses, m.ResumeAttempts)
	}
	if m.Availability < minAvail {
		return fmt.Errorf("availability %.4f below required %.4f", m.Availability, minAvail)
	}
	if m.ShedRate > maxShed {
		return fmt.Errorf("shed rate %.4f above allowed %.4f", m.ShedRate, maxShed)
	}
	if chaosPhases > 0 && m.Reconnects < 1 {
		return fmt.Errorf("%d chaos phase(s) but no reconnects — the faults never fired, the gate is vacuous", chaosPhases)
	}
	if pressurePhases > 0 && m.Shed < 1 {
		return fmt.Errorf("%d pressure phase(s) but nothing shed — the pressure never bit, the gate is vacuous", pressurePhases)
	}
	if m.ShardKills < kills {
		return fmt.Errorf("%d kill/leave op(s) planned but %d executed — the gate is vacuous", kills, m.ShardKills)
	}
	if kills > 0 && m.MigratedResumes < 1 {
		return fmt.Errorf("%d kill/leave op(s) but no session migrated across shard boundaries — the topology changes moved nothing", kills)
	}
	if joins > 0 && m.ShardJoins < 1 {
		return fmt.Errorf("%d join op(s) planned but no replica joined — the gate never saw a rebalance toward a new member", joins)
	}
	if minAcc > 0 && c.Accuracy.Overall < minAcc {
		return fmt.Errorf("accuracy %.4f below required %.4f", c.Accuracy.Overall, minAcc)
	}

	if len(rest) == 2 {
		twin, err := readSLOReport(rest[1])
		if err != nil {
			return err
		}
		a, err := rep.CanonicalBytes()
		if err != nil {
			return err
		}
		b, err := twin.CanonicalBytes()
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("canonical sections differ across same-seed runs (digest %s vs %s) — the scenario engine is non-deterministic, or faults or shard topology leaked into classifications",
				rep.Canonical.Digest, twin.Canonical.Digest)
		}
		fmt.Printf("benchdiff: slo canonical sections byte-identical across runs (digest %s)\n", rep.Canonical.Digest)
	}
	return nil
}

func readSLOReport(path string) (*obs.SLOReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Canonical.Name == "" || rep.Canonical.TotalRounds == 0 {
		return nil, fmt.Errorf("%s: not an SLO report (empty canonical section)", path)
	}
	return &rep, nil
}
