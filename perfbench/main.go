// Command perfbench is the repository's serving benchmark. It starts
// origin-serve and origin-router as real processes on loopback with the
// real MHEALTH models, drives one workload from this process (a fixed-rate
// open-loop phase, then a closed-loop phase), checks every served class
// against a serial replay, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — as the last line of standard output.
//
// Build and run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload stream-durable --seed 1 --seconds 12 --trace 0
//
// METRICS.md defines every metric and says which end-to-end metric each
// layer metric should move, on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"origin/internal/fleet"
	"origin/internal/loadgen"
)

// setupReps is how many times a run sets its stack up; setup_s is the
// median and the last stack carries the load.
const setupReps = 3

// runLimit bounds one invocation after the one-time model training.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root      = flag.String("root", ".", "repository checkout to build and measure")
		name      = flag.String("workload", "", "workload: stream-durable, votes-fleet, windows-routed or all")
		seed      = flag.Int64("seed", -1, "workload seed (-1 = the default seed in fingerprints.json)")
		seconds   = flag.Int("seconds", 16, "measured seconds per run: 60% open loop, 40% closed loop")
		trace     = flag.Int("trace", 0, "1 = report the per-layer metrics (adds the traced in-process run)")
		selfcheck = flag.Bool("selfcheck", false, "check the harness itself against a real origin-serve and exit")
		record    = flag.Int("record-fingerprints", 0, "write fingerprints.json for seeds 0..n-1 of every workload and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(genProcs)

	abs, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	benchDir := filepath.Join(abs, "perfbench")
	if *record > 0 {
		if err := recordFingerprints(benchDir, *record); err != nil {
			fatal(err)
		}
		return
	}
	e, err := newEnv(abs, benchDir)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.stopAll()
		os.Exit(1)
	}()
	defer e.stopAll()

	if err := e.warmModels(); err != nil {
		fail(e, err)
	}
	os.Setenv("ORIGIN_CACHE", e.models)
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		e.stopAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	if *selfcheck {
		if err := selfCheck(e); err != nil {
			fail(e, err)
		}
		return
	}

	fp, err := loadFingerprints(e.benchDir)
	if err != nil {
		fail(e, err)
	}
	if *seed < 0 {
		*seed = fp.DefaultSeed
	}
	if *seconds < 2 {
		fail(e, fmt.Errorf("-seconds must be at least 2"))
	}
	var list []*workload
	if *name == "all" {
		list = workloads
	} else if wl := workloadByName(*name); wl != nil {
		list = []*workload{wl}
	} else {
		fail(e, fmt.Errorf("unknown workload %q (want stream-durable, votes-fleet, windows-routed or all)", *name))
	}
	for _, wl := range list {
		res, err := runWorkload(e, fp, wl, *seed, float64(*seconds), *trace == 1)
		if err != nil {
			fail(e, fmt.Errorf("%s: %w", wl.name, err))
		}
		b, err := json.Marshal(res)
		if err != nil {
			fail(e, err)
		}
		fmt.Println(string(b))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// fail stops every started process and exits without printing a result.
func fail(e *env, err error) {
	e.stopAll()
	fatal(err)
}

// runWorkload is one benchmark run of one workload.
func runWorkload(e *env, fp *fingerprints, wl *workload, seed int64, secs float64, trace bool) (*result, error) {
	model, err := fleet.DefaultBuild(profile)
	if err != nil {
		return nil, err
	}
	if wl.quant {
		if err := model.EnableInt8(); err != nil {
			return nil, err
		}
	}
	pl, err := generate(wl, seed)
	if err != nil {
		return nil, err
	}
	recorded, fpOK := fp.check(wl.name, seed, pl.digest)
	switch {
	case !recorded:
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: input sha256 %s (no recorded fingerprint for this seed)\n", wl.name, seed, pl.digest)
	case !fpOK:
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: input sha256 %s differs from the recorded one: the workload changed\n", wl.name, seed, pl.digest)
	}

	ro, attempts, err := realRun(e, wl, pl, secs)
	if err != nil {
		return nil, err
	}
	correct := !recorded || fpOK
	res := &result{Metrics: map[string]metric{}}
	var rep *replayOut
	var steals []string
	for _, a := range attempts {
		r := replay(model, pl, collect(wl.sessions, a.open, a.closed))
		if a == ro {
			rep = r
		}
		evicted := a.end["origin_serve_sessions_evicted_total"]
		correct = correct && r.mismatches == 0 && r.incomplete == 0 && evicted == 0
		if r.firstBad != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: replay: %d mismatches, %d incomplete sessions; first: %s\n", wl.name, r.mismatches, r.incomplete, r.firstBad)
		}
		if evicted > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %g sessions evicted during the run\n", wl.name, evicted)
		}
		res.Attempted += len(a.open.recs) + len(a.closed.recs)
		res.Failed += len(a.open.recs) + len(a.closed.recs) - a.open.completed() - a.closed.completed()
		steals = append(steals, fmt.Sprintf("%.1f%%", 100*a.stealFrac))
	}
	res.Correct = correct

	lines := []string{fmt.Sprintf("measured %d time(s), host CPU steal %s; kept the attempt with %.1f%%", len(attempts), strings.Join(steals, ", "), 100*ro.stealFrac)}
	e2e, tails := endToEnd(wl, pl, ro, &lines)
	if !trace {
		for k, m := range e2e {
			res.Metrics[k] = m
		}
		printSummary(wl, seed, res, lines)
		return res, nil
	}
	layers, err := perLayer(e, wl, pl, model, ro, rep, e2e, tails, secs, &lines)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	printSummary(wl, seed, res, lines)
	return res, nil
}

// stack is one set-up of the system under test.
type stack struct {
	procs     []*proc
	replicas  []*proc
	router    *proc
	t         *target
	stateDirs []string
}

func (e *env) teardown(st *stack) {
	if st.t != nil {
		st.t.close()
	}
	for _, p := range st.procs {
		e.stop(p)
	}
	for _, d := range st.stateDirs {
		_ = os.RemoveAll(d)
	}
}

// startStack spawns the workload's server processes and sets up its load:
// health checks pass, sessions are open and streams are connected.
func (e *env) startStack(wl *workload, pl *payloads, rep int) (*stack, error) {
	st := &stack{}
	n := 1
	if wl.routed {
		n = 2
	}
	var entries []string
	streamAddr := ""
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return st, err
		}
		args := []string{"-addr", addr, "-cache", e.models, "-profiles", profile, "-max-sessions", strconv.Itoa(wl.maxSessions)}
		if wl.quant {
			args = append(args, "-quant")
		}
		if wl.mode == loadgen.ModeStream {
			if streamAddr, err = freeAddr(); err != nil {
				return st, err
			}
			args = append(args, "-stream-addr", streamAddr)
		}
		if wl.store {
			dir := filepath.Join(e.work, fmt.Sprintf("state-%d-%d", rep, i))
			st.stateDirs = append(st.stateDirs, dir)
			args = append(args, "-state-dir", dir)
		}
		p, err := e.spawn(fmt.Sprintf("%s-serve%d", wl.name, i), "http://"+addr, "origin-serve", args...)
		if err != nil {
			return st, err
		}
		st.procs = append(st.procs, p)
		st.replicas = append(st.replicas, p)
		// The router needs a stream address per replica; with no stream
		// front on the router it is never dialled.
		entries = append(entries, "http://"+addr+"@127.0.0.1:1")
	}
	front := st.replicas[0].base
	if wl.routed {
		addr, err := freeAddr()
		if err != nil {
			return st, err
		}
		p, err := e.spawn(wl.name+"-router", "http://"+addr, "origin-router", "-addr", addr, "-replicas", strings.Join(entries, ","))
		if err != nil {
			return st, err
		}
		st.procs = append(st.procs, p)
		st.router = p
		front = p.base
	}
	for _, p := range st.procs {
		if err := waitHealthy(p, 60*time.Second); err != nil {
			return st, err
		}
	}
	st.t = newTarget(front, streamAddr, nil)
	if err := st.t.openSessions(wl.sessions); err != nil {
		return st, err
	}
	if streamAddr != "" {
		if err := st.t.connectStreams(pl.order); err != nil {
			return st, err
		}
	}
	return st, nil
}

// realOut is one run against the real processes.
type realOut struct {
	setups       []float64
	open, closed *phase
	upBytes      int64
	cpu, router  procSample // deltas over the open-loop phase
	hwmKB        int64
	m0, m1, end  map[string]float64 // replica counters summed
	scr          *scraper
	stealFrac    float64 // host CPU steal over both phases
}

func sumMetrics(ps []*proc) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, p := range ps {
		m, _, err := scrapeMetrics(p.base)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

func readProcs(ps []*proc) (procSample, error) {
	var sum procSample
	for _, p := range ps {
		s, err := readProc(p.pid)
		if err != nil {
			return sum, err
		}
		sum = sum.add(s)
	}
	return sum, nil
}

func (t *target) written() int64 {
	var n int64
	for _, lc := range t.conns {
		n += lc.written.Load()
	}
	return n
}

// stealRetry is the host CPU steal share above which a measurement is
// repeated once on a fresh stack. Steal is CPU time the hypervisor gave
// other guests: it slows every wall-clock figure of a run and says nothing
// about the program.
const stealRetry = 0.03

// realRun sets the stack up setupReps times and measures on the last
// set-up. A measurement during which the host stole more than stealRetry of
// the CPU is repeated on a fresh stack and the attempt with less steal is
// kept; every attempt is returned, so every attempt is checked.
func realRun(e *env, wl *workload, pl *payloads, secs float64) (kept *realOut, attempts []*realOut, err error) {
	var setups []float64
	var st *stack
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		s, err := e.startStack(wl, pl, r)
		if err != nil {
			e.teardown(s)
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < setupReps-1 {
			e.teardown(s)
			continue
		}
		st = s
	}
	for {
		out, err := measure(wl, pl, secs, st)
		e.teardown(st)
		if err != nil {
			return nil, nil, err
		}
		out.setups = setups
		attempts = append(attempts, out)
		if kept == nil || out.stealFrac < kept.stealFrac {
			kept = out
		}
		if len(attempts) > 1 || out.stealFrac <= stealRetry {
			return kept, attempts, nil
		}
		if st, err = e.startStack(wl, pl, setupReps); err != nil {
			e.teardown(st)
			return nil, nil, err
		}
	}
}

// measure drives the open-loop phase at the workload's fixed rate and then
// the closed-loop phase against a set-up stack, with the monitoring scrape
// running throughout.
func measure(wl *workload, pl *payloads, secs float64, st *stack) (*realOut, error) {
	out := &realOut{scr: startScraper(bases(st.replicas))}
	defer out.scr.finish()
	var err error
	if out.m0, err = sumMetrics(st.replicas); err != nil {
		return nil, err
	}
	p0, err := readProcs(st.procs)
	if err != nil {
		return nil, err
	}
	var r0 procSample
	if st.router != nil {
		r0, _ = readProc(st.router.pid)
	}
	up0 := st.t.written()
	// Write back what earlier runs and builds left dirty, so the store's
	// file system starts each run from the same place.
	syscall.Sync()
	s0, t0 := hostSteal()
	nOpen, closedDur := phaseSplit(wl, secs)
	out.open = st.t.run(pl, 0, nOpen, wl.rate, 0)
	out.upBytes = st.t.written() - up0
	p1, err := readProcs(st.procs)
	if err != nil {
		return nil, err
	}
	out.cpu = p1.sub(p0)
	if st.router != nil {
		r1, _ := readProc(st.router.pid)
		out.router = r1.sub(r0)
	}
	if out.m1, err = sumMetrics(st.replicas); err != nil {
		return nil, err
	}
	out.closed = st.t.run(pl, nOpen, 0, 0, closedDur)
	s1, t1 := hostSteal()
	out.stealFrac = ratio(float64(s1-s0), float64(t1-t0))
	if out.end, err = sumMetrics(st.replicas); err != nil {
		return nil, err
	}
	pe, err := readProcs(st.procs)
	if err != nil {
		return nil, err
	}
	out.hwmKB = pe.hwmKB
	return out, nil
}

func bases(ps []*proc) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.base)
	}
	return out
}

// Open-loop latencies are summarised per window of due time and the
// median window is reported, so one stall (a noisy neighbour, a journal
// commit) moves the figure only when it recurs. At the lowest open-loop
// rate a 2 s window holds 1000 rounds, so a window's p99 has 10 samples
// beyond it. Closed-loop throughput is the median of 1 s windows.
const (
	latencyWindow = 2 * time.Second
	rateWindow    = time.Second
)

// endToEnd computes the metrics a user of the service sees, and the
// latency tails, which the per-layer report carries. lines collects the
// human-readable summary, percentiles with their sample counts.
func endToEnd(wl *workload, pl *payloads, ro *realOut, lines *[]string) (m map[string]metric, tails map[string]float64) {
	var lat, late []float64
	windows := make([][]float64, int(ro.open.elapsed/latencyWindow)+1)
	correctClass, okOpen := 0, 0
	for _, r := range ro.open.recs {
		late = append(late, float64(r.sent-r.due)/1e6)
		if !r.ok {
			continue
		}
		okOpen++
		ms := float64(r.done-r.due) / 1e6
		lat = append(lat, ms)
		w := int(r.due / latencyWindow)
		windows[w] = append(windows[w], ms)
		if r.class == pl.truthOf(r.sess, r.k) {
			correctClass++
		}
	}
	var p50s, p90s []float64
	var wp50, wp90 []pct
	for _, w := range windows {
		// A trailing window shorter than half the others is left out.
		if len(w) < int(wl.rate*latencyWindow.Seconds()/2) {
			continue
		}
		a, b := percentile(w, 0.50), percentile(w, 0.90)
		wp50, wp90 = append(wp50, a), append(wp90, b)
		p50s, p90s = append(p50s, a.v), append(p90s, b.v)
	}
	rates := windowRates(ro.closed, rateWindow)
	attempted := len(ro.open.recs) + len(ro.closed.recs)
	completed := ro.open.completed() + ro.closed.completed()
	m = map[string]metric{
		"setup_s":                 {median(ro.setups), "s"},
		"round_p50_ms":            {median(p50s), "ms"},
		"sat_rounds_per_s":        {median(rates), "rounds/s"},
		"server_cpu_us_per_round": {ratio(float64(ro.cpu.cpuTicks)*1e6/clockTicks, float64(okOpen)), "us"},
		"server_rss_mb":           {float64(ro.hwmKB) / 1024, "MB"},
		"ok_frac":                 {ratio(float64(completed), float64(attempted)), "ratio"},
		"accuracy":                {ratio(float64(correctClass), float64(okOpen)), "ratio"},
		"uplink_bytes_per_round":  {ratio(float64(ro.upBytes), float64(okOpen)), "B"},
	}
	*lines = append(*lines,
		fmt.Sprintf("open loop: %d rounds at %g/s in %.2fs; closed loop: %d rounds in %.2fs",
			len(ro.open.recs), wl.rate, ro.open.elapsed.Seconds(), len(ro.closed.recs), ro.closed.elapsed.Seconds()),
		fmt.Sprintf("setup_s: median of %d set-ups %v", len(ro.setups), fmtList(ro.setups)),
		fmt.Sprintf("round_p50_ms: median over %d windows of %s of %s", len(wp50), latencyWindow, fmtPcts(wp50)),
		fmt.Sprintf("round_p90_ms: median over %d windows of %s of %s", len(wp90), latencyWindow, fmtPcts(wp90)),
		fmt.Sprintf("whole open-loop phase: round_p50 %s = %.3f ms; round_p90 %s = %.3f ms; round_p95 %s = %.3f ms; round_p99 %s = %.3f ms",
			percentile(lat, 0.5), quantile(lat, 0.5), percentile(lat, 0.9), quantile(lat, 0.9), percentile(lat, 0.95), quantile(lat, 0.95), percentile(lat, 0.99), quantile(lat, 0.99)),
		fmt.Sprintf("sat_rounds_per_s: median of %d windows of %s %v", len(rates), rateWindow, fmtList(rates)),
		fmt.Sprintf("bench.gen_late_ms_p99: %s = %.3f ms", percentile(late, 0.99), quantile(late, 0.99)),
	)
	tails = map[string]float64{
		"round_p90_ms":          median(p90s),
		"round_p99_ms":          quantile(lat, 0.99),
		"bench.gen_late_ms_p99": quantile(late, 0.99),
	}
	return m, tails
}

// fmtPcts lists window percentiles with their sample counts.
func fmtPcts(ps []pct) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%.3f ms (%s)", p.v, p)
	}
	return strings.Join(parts, ", ")
}

// windowRates returns the completed rounds per second in each window of a
// phase, by completion time.
func windowRates(ph *phase, w time.Duration) []float64 {
	n := int(ph.elapsed / w)
	counts := make([]float64, n)
	for _, r := range ph.recs {
		if i := int(r.done / w); r.ok && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// units of the per-layer metrics; a metric the workload cannot have is
// reported as 0 and named in the summary.
var layerUnits = map[string]string{
	"round_p90_ms":                       "ms",
	"round_p99_ms":                       "ms",
	"serve.parse_us_per_round":           "us",
	"fleet.mean_batch":                   "count",
	"fleet.shed_frac":                    "ratio",
	"fleet.queue_depth_mean":             "count",
	"fleet.sessions_evicted":             "count",
	"serve.result_flushes_per_round":     "count",
	"serve.stream_rejects":               "count",
	"obs.scrape_ms_p50":                  "ms",
	"obs.scrape_ms_max":                  "ms",
	"obs.scrape_bytes":                   "B",
	"proc.write_bytes_per_round":         "B",
	"proc.write_syscalls_per_round":      "count",
	"proc.read_syscalls_per_round":       "count",
	"proc.ctx_switches_per_round":        "count",
	"cluster.router_cpu_us_per_round":    "us",
	"comm.decode_ns_per_frame":           "ns",
	"comm.downlink_bytes_per_round":      "B",
	"serve.assemble_ns_per_round":        "ns",
	"serve.handler_us_p50":               "us",
	"serve.handler_us_p99":               "us",
	"cluster.hop_us_p50":                 "us",
	"fleet.store_load_us_p50":            "us",
	"fleet.store_put_us_p50":             "us",
	"fleet.store_put_us_p99":             "us",
	"fleet.store_loads_per_round":        "count",
	"fleet.store_puts_per_round":         "count",
	"fleet.store_put_bytes_per_round":    "B",
	"fleet.snapshot_encode_us":           "us",
	"fleet.snapshot_decode_us":           "us",
	"fleet.snapshot_bytes":               "B",
	"dnn.forward_us_per_window":          "us",
	"dnn.forward_batch_us_per_window":    "us",
	"dnn.forward_int8_us_per_window":     "us",
	"host.vote_adapt_us_per_round":       "us",
	"fleet.telemetry_ms":                 "ms",
	"fleet.heap_bytes_per_session":       "B",
	"fleet.session_create_us":            "us",
	"go.alloc_bytes_per_round":           "B",
	"go.gc_cycles_per_kround":            "count",
	"bench.gen_late_ms_p99":              "ms",
	"bench.trace_overhead_frac":          "ratio",
	"bench.unaccounted_frac":             "ratio",
	"self.bench_round_us_per_round":      "us",
	"self.cluster_router_us_per_round":   "us",
	"self.serve_http_us_per_round":       "us",
	"self.serve_downlink_us_per_round":   "us",
	"self.fleet_store_load_us_per_round": "us",
	"self.fleet_store_put_us_per_round":  "us",
}

// perLayer gathers the per-layer metrics: counters read from outside
// during the real run, then an in-process run with spans off and one with
// spans on, then direct timed calls on the workload's captured inputs.
func perLayer(e *env, wl *workload, pl *payloads, model *fleet.Model, ro *realOut, rep *replayOut, e2e map[string]metric, tails map[string]float64, secs float64, lines *[]string) (map[string]metric, error) {
	v := map[string]float64{}
	for k, x := range tails {
		v[k] = x
	}
	d := func(name string) float64 { return ro.m1["origin_serve_"+name] - ro.m0["origin_serve_"+name] }
	rounds := float64(ro.open.completed())
	v["serve.parse_us_per_round"] = ratio(d("parse_nanos_total"), d("parse_rounds_total")) / 1e3
	v["fleet.mean_batch"] = ratio(d("windows_batched_total"), d("batch_flushes_total"))
	v["fleet.shed_frac"] = ratio(d("requests_shed_total"), d("requests_accepted_total")+d("requests_shed_total"))
	v["fleet.queue_depth_mean"] = mean(ro.scr.depth)
	v["fleet.sessions_evicted"] = ro.end["origin_serve_sessions_evicted_total"]
	v["serve.result_flushes_per_round"] = ratio(d("stream_result_flushes_total"), d("stream_rounds_total"))
	v["serve.stream_rejects"] = ro.end["origin_serve_stream_rejects_total"]
	sp50, smax := percentile(ro.scr.ms, 0.5), maxOf(ro.scr.ms)
	v["obs.scrape_ms_p50"], v["obs.scrape_ms_max"], v["obs.scrape_bytes"] = sp50.v, smax, mean(ro.scr.bytes)
	v["proc.write_bytes_per_round"] = ratio(float64(ro.cpu.wchar), rounds)
	v["proc.write_syscalls_per_round"] = ratio(float64(ro.cpu.syscw), rounds)
	v["proc.read_syscalls_per_round"] = ratio(float64(ro.cpu.syscr), rounds)
	v["proc.ctx_switches_per_round"] = ratio(float64(ro.cpu.ctxSwitches), rounds)
	v["cluster.router_cpu_us_per_round"] = ratio(float64(ro.router.cpuTicks)*1e6/clockTicks, rounds)
	*lines = append(*lines, fmt.Sprintf("obs.scrape_ms_p50: %s", sp50))

	off, err := runInproc(wl, pl, nil, e.work, secs/2)
	if err != nil {
		return nil, fmt.Errorf("in-process run: %w", err)
	}
	tr := newTracer()
	on, err := runInproc(wl, pl, tr, e.work, secs/2)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for _, o := range []*inprocOut{off, on} {
		if f := len(o.open.recs) + len(o.closed.recs) - o.open.completed() - o.closed.completed(); f > 0 {
			return nil, fmt.Errorf("in-process run: %d rounds failed", f)
		}
	}
	if err := os.MkdirAll(filepath.Join(e.root, ".bench_build", "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(e.root, ".bench_build", "traces", wl.name+".tsv")); err != nil {
		return nil, err
	}
	satOff := float64(off.closed.completed()) / off.closed.elapsed.Seconds()
	satOn := float64(on.closed.completed()) / on.closed.elapsed.Seconds()
	v["bench.trace_overhead_frac"] = 1 - ratio(satOn, satOff)
	v["go.alloc_bytes_per_round"] = off.allocPerRound
	v["go.gc_cycles_per_kround"] = off.gcPerKRound
	v["fleet.telemetry_ms"] = off.telemetryMs

	ts := tr.analyze()
	tn := float64(ts.rounds)
	for l := lRound; l < lBuild; l++ {
		v["self."+layerNames[l]+"_us_per_round"] = ratio(ts.selfNs[l], tn) / 1e3
	}
	hp50, hp99 := percentile(ts.durUs[lHTTP], 0.5), percentile(ts.durUs[lHTTP], 0.99)
	hop := percentile(ts.hopUs, 0.5)
	lp50 := percentile(ts.durUs[lStoreLoad], 0.5)
	pp50, pp99 := percentile(ts.durUs[lStorePut], 0.5), percentile(ts.durUs[lStorePut], 0.99)
	v["serve.handler_us_p50"], v["serve.handler_us_p99"] = hp50.v, hp99.v
	v["cluster.hop_us_p50"] = hop.v
	v["fleet.store_load_us_p50"], v["fleet.store_put_us_p50"], v["fleet.store_put_us_p99"] = lp50.v, pp50.v, pp99.v
	v["fleet.store_loads_per_round"] = ratio(float64(ts.count[lStoreLoad]), tn)
	v["fleet.store_puts_per_round"] = ratio(float64(ts.count[lStorePut]), tn)
	v["fleet.store_put_bytes_per_round"] = ratio(float64(ts.bytes[lStorePut]), tn)
	if wl.mode == loadgen.ModeStream {
		v["comm.downlink_bytes_per_round"] = ratio(float64(on.downBytes), float64(on.rounds))
	}
	*lines = append(*lines,
		fmt.Sprintf("serve.handler_us_p50: %s; serve.handler_us_p99: %s", hp50, hp99),
		fmt.Sprintf("cluster.hop_us_p50: %s", hop),
		fmt.Sprintf("fleet.store_load_us_p50: %s; fleet.store_put_us_p50: %s; fleet.store_put_us_p99: %s", lp50, pp50, pp99),
		fmt.Sprintf("traced run: %d rounds with spans; closed loop %.0f rounds/s traced, %.0f untraced", ts.rounds, satOn, satOff),
	)

	tr.mu.Lock()
	blobs := tr.blobs
	tr.mu.Unlock()
	if err := directLayers(model, rep, blobs, v["fleet.mean_batch"], v); err != nil {
		return nil, fmt.Errorf("direct layer timings: %w", err)
	}
	if v["fleet.session_create_us"], v["fleet.heap_bytes_per_session"], err = probeSessions(wl, model); err != nil {
		return nil, err
	}

	// Server work per round that the layer timings account for: the
	// self time of every server-side span, plus, on the stream path, the
	// directly timed stages that run outside any span (frame decode,
	// window assembly, forward pass, vote/adapt, snapshot encode).
	acc := v["self.cluster_router_us_per_round"] + v["self.serve_http_us_per_round"] + v["self.serve_downlink_us_per_round"] +
		v["self.fleet_store_load_us_per_round"] + v["self.fleet_store_put_us_per_round"]
	if wl.mode == loadgen.ModeStream {
		acc += v["comm.decode_ns_per_frame"]/1e3 + v["serve.assemble_ns_per_round"]/1e3 + v["dnn.forward_batch_us_per_window"] +
			v["host.vote_adapt_us_per_round"] + v["fleet.snapshot_encode_us"]*v["fleet.store_puts_per_round"]
	}
	v["bench.unaccounted_frac"] = 1 - ratio(acc, e2e["server_cpu_us_per_round"].Value)

	out := map[string]metric{}
	var absent []string
	for name, unit := range layerUnits {
		x, ok := v[name]
		if !ok {
			absent = append(absent, name)
		}
		out[name] = metric{x, unit}
	}
	sort.Strings(absent)
	if len(absent) > 0 {
		*lines = append(*lines, "not measured on this workload (reported as 0): "+strings.Join(absent, ", "))
	}
	return out, nil
}

// printSummary writes the human-readable report to standard error.
func printSummary(wl *workload, seed int64, res *result, lines []string) {
	fmt.Fprintf(os.Stderr, "== %s seed %d: correct=%v attempted=%d failed=%d\n", wl.name, seed, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
}
