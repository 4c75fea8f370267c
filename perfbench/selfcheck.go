package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"syscall"
	"time"

	"origin/internal/loadgen"
)

// selfCheck tests the harness against a real origin-serve: a server-side
// pause must show up both in the latency of the rounds queued behind it and
// in the generator's lateness; a forced failed round must be counted, not
// dropped; and every percentile must be printed with its sample count.
func selfCheck(e *env) error {
	wl := &workload{name: "selfcheck", mode: loadgen.ModeVotes, sessions: 64, rate: 400, pool: 16, maxSessions: 4096}
	const secs = 2.0
	pause := 200 * time.Millisecond

	pl, err := generate(wl, 1)
	if err != nil {
		return err
	}
	// Round 10 of the open loop carries a body the server must refuse.
	s, k := pl.round(10)
	good := pl.bodies[s][k]
	pl.bodies[s][k] = []byte("{")
	calm, err := selfCheckRun(e, wl, pl, secs, 0)
	pl.bodies[s][k] = good
	if err != nil {
		return err
	}
	paused, err := selfCheckRun(e, wl, pl, secs, pause)
	if err != nil {
		return err
	}

	var problems []string
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			problems = append(problems, fmt.Sprintf(format, args...))
		}
		fmt.Fprintf(os.Stderr, "selfcheck %s "+format+"\n", append([]any{status}, args...)...)
	}

	var lc, lp []string
	mc, _ := endToEnd(wl, pl, calm, &lc)
	endToEnd(wl, pl, paused, &lp)
	lateC, lateP := lateP99(calm.open), lateP99(paused.open)
	// The pause sits in one latency window, so it shows in the tail of the
	// whole phase; round_p99_ms, a median over windows, is built to resist
	// exactly one such stall.
	latC, latP := latencyP99(calm.open), latencyP99(paused.open)
	check(latP > latC+float64(pause.Milliseconds())/2,
		"a %s pause raises the p99 latency of the open-loop phase: %.2f ms calm, %.2f ms paused", pause, latC, latP)
	check(lateP > lateC+float64(pause.Milliseconds())/4,
		"a %s pause raises bench.gen_late_ms_p99: %.2f ms calm, %.2f ms paused", pause, lateC, lateP)

	attempted := len(calm.open.recs)
	wantOK := float64(attempted-1) / float64(attempted)
	check(attempted-calm.open.completed() == 1, "the forced failure is counted: %d of %d rounds failed", attempted-calm.open.completed(), attempted)
	check(mc["ok_frac"].Value == wantOK, "ok_frac counts it: %.6f, want %.6f", mc["ok_frac"].Value, wantOK)
	sv := collect(wl.sessions, calm.open)
	check(sv[s].failed == 1, "the failed round is attributed to its session (%d failed)", sv[s].failed)

	for _, l := range append(lc, lp...) {
		if percentileName.MatchString(l) {
			check(strings.Contains(l, " of n="), "percentile printed with its sample count: %q", l)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed: %s", strings.Join(problems, "; "))
	}
	fmt.Fprintln(os.Stderr, "selfcheck: all harness checks passed")
	return nil
}

// percentileName matches a summary line that reports a percentile.
var percentileName = regexp.MustCompile(`_p[0-9]+`)

func latencyP99(ph *phase) float64 {
	var lat []float64
	for _, r := range ph.recs {
		if r.ok {
			lat = append(lat, float64(r.done-r.due)/1e6)
		}
	}
	return quantile(lat, 0.99)
}

func lateP99(ph *phase) float64 {
	var late []float64
	for _, r := range ph.recs {
		late = append(late, float64(r.sent-r.due)/1e6)
	}
	return quantile(late, 0.99)
}

// selfCheckRun runs the open-loop phase once against a fresh origin-serve,
// optionally stopping the server process for pause a third of the way in.
func selfCheckRun(e *env, wl *workload, pl *payloads, secs float64, pause time.Duration) (*realOut, error) {
	start := time.Now()
	st, err := e.startStack(wl, pl, 0)
	defer e.teardown(st)
	if err != nil {
		return nil, err
	}
	out := &realOut{setups: []float64{time.Since(start).Seconds()}, closed: &phase{elapsed: time.Second}}
	done := make(chan struct{})
	if pause > 0 {
		pid := st.replicas[0].pid
		go func() {
			defer close(done)
			time.Sleep(time.Duration(secs / 3 * float64(time.Second)))
			_ = syscall.Kill(pid, syscall.SIGSTOP)
			time.Sleep(pause)
			_ = syscall.Kill(pid, syscall.SIGCONT)
		}()
	} else {
		close(done)
	}
	out.open = st.t.run(pl, 0, int(wl.rate*secs), wl.rate, 0)
	<-done
	return out, nil
}
