package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one benchmark invocation's place in the checkout: every file it
// writes lives under .bench_build, and every process it starts is tracked
// here so that each exit path stops and waits for them.
type env struct {
	root, benchDir          string
	bin, models, logs, work string

	mu    sync.Mutex
	procs map[*proc]struct{}
	seq   int
}

func newEnv(root, benchDir string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root: root, benchDir: benchDir,
		bin:    filepath.Join(build, "bin"),
		models: filepath.Join(build, "models"),
		logs:   filepath.Join(build, "logs"),
		work:   filepath.Join(build, "work"),
		procs:  map[*proc]struct{}{},
	}
	for _, d := range []string{e.models, e.logs, e.work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// A previous run that was killed may have left state directories.
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	return e, os.MkdirAll(e.work, 0o755)
}

// proc is one started server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	pid    int
	base   string // HTTP base URL
	exited chan struct{}
	logf   *os.File
}

// spawn starts one binary from .bench_build/bin with its output sent to a
// log file under .bench_build/logs.
func (e *env) spawn(name, base, binary string, args ...string) (*proc, error) {
	e.mu.Lock()
	e.seq++
	logPath := filepath.Join(e.logs, fmt.Sprintf("%03d-%s.log", e.seq, name))
	e.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, binary), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Dir = e.work
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", binary, err)
	}
	p := &proc{name: name, cmd: cmd, pid: cmd.Process.Pid, base: base, exited: make(chan struct{}), logf: logf}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	e.mu.Lock()
	e.procs[p] = struct{}{}
	e.mu.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits up to five seconds for the graceful drain,
// then kills; it returns once the process has been reaped.
func (e *env) stop(p *proc) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.logf.Close()
	e.mu.Lock()
	delete(e.procs, p)
	e.mu.Unlock()
}

// stopAll stops every process still running.
func (e *env) stopAll() {
	e.mu.Lock()
	ps := make([]*proc, 0, len(e.procs))
	for p := range e.procs {
		ps = append(ps, p)
	}
	e.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			e.stop(p)
		}(p)
	}
	wg.Wait()
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls GET /healthz until it answers 200, the process exits or
// the timeout passes.
func waitHealthy(p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probeClient.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was healthy (see %s)", p.name, p.logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s", p.name, timeout)
		}
	}
}

// warmModels trains the MHEALTH nets into the benchmark's own model cache
// once per checkout, before any timed run: one origin-serve start with
// -cache fills it, and every later replica loads from it.
func (e *env) warmModels() error {
	ready := filepath.Join(e.models, "READY")
	if _, err := os.Stat(ready); err == nil {
		return nil
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: training the MHEALTH models into .bench_build/models (once per checkout)")
	p, err := e.spawn("train", "http://"+addr, "origin-serve", "-addr", addr, "-cache", e.models, "-profiles", profile)
	if err != nil {
		return err
	}
	err = waitHealthy(p, 800*time.Second)
	e.stop(p)
	if err != nil {
		return err
	}
	return os.WriteFile(ready, []byte("ok\n"), 0o644)
}

// hostSteal reads the host-wide CPU time, in ticks, that the hypervisor
// gave to other guests, and the total; the summary reports their ratio so a
// run slowed by a noisy neighbour is visible as such.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// procSample is what /proc says about one process at one moment.
type procSample struct {
	cpuTicks            int64 // utime + stime, all threads
	wchar, syscw, syscr int64
	ctxSwitches         int64 // voluntary + involuntary, summed over live threads
	hwmKB               int64 // VmHWM
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command start at field 3 (state);
	// utime and stime are fields 14 and 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("%s/stat: short line", dir)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpuTicks = ut + st

	// /proc/<pid>/io feeds only per-layer counters; where the kernel hides
	// it, they read 0 rather than failing the run.
	io, _ := os.ReadFile(dir + "/io")
	for _, line := range strings.Split(string(io), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "wchar":
			s.wchar = n
		case "syscw":
			s.syscw = n
		case "syscr":
			s.syscr = n
		}
	}

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.hwmKB = statusField(status, "VmHWM:")
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		s.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

func statusField(status []byte, key string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpuTicks: a.cpuTicks - b.cpuTicks, wchar: a.wchar - b.wchar,
		syscw: a.syscw - b.syscw, syscr: a.syscr - b.syscr,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches, hwmKB: a.hwmKB,
	}
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		cpuTicks: a.cpuTicks + b.cpuTicks, wchar: a.wchar + b.wchar,
		syscw: a.syscw + b.syscw, syscr: a.syscr + b.syscr,
		ctxSwitches: a.ctxSwitches + b.ctxSwitches, hwmKB: a.hwmKB + b.hwmKB,
	}
}

// scrapeClient is the monitoring system's own connection.
var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrapeMetrics fetches one replica's /metrics and returns every sample
// value by name, plus the body size.
func scrapeMetrics(base string) (map[string]float64, int, error) {
	resp, err := scrapeClient.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err == nil {
			m[name] = v
		}
	}
	return m, len(body), nil
}

// scraper is the once-a-second monitoring scrape of every replica's
// /metrics, timed from the outside.
type scraper struct {
	bases []string
	stop  chan struct{}
	done  chan struct{}

	ms, bytes, depth []float64
}

func startScraper(bases []string) *scraper {
	s := &scraper{bases: bases, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, b := range s.bases {
				start := time.Now()
				m, n, err := scrapeMetrics(b)
				if err != nil {
					continue
				}
				s.ms = append(s.ms, float64(time.Since(start))/1e6)
				s.bytes = append(s.bytes, float64(n))
				s.depth = append(s.depth, m["origin_serve_queue_depth"])
			}
		}
	}()
	return s
}

// finish stops the scraper and waits for its goroutine.
func (s *scraper) finish() {
	close(s.stop)
	<-s.done
}
