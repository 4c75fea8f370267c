package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"origin/internal/cluster"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

// inproc is the workload's stack rebuilt inside the benchmark process from
// the public constructors, with origin-serve's and origin-router's
// settings, so spans can wrap its seams.
type inproc struct {
	mgrs      []*fleet.Manager
	servers   []*http.Server
	stream    *serve.StreamServer
	front     string
	sAddr     string
	down      atomic.Int64
	stateDirs []string
}

// managerConfig mirrors origin-serve's flag defaults for a workload.
func managerConfig(wl *workload, reg *fleet.Registry, state fleet.StateStore) fleet.Config {
	return fleet.Config{
		Registry: reg, Shards: 8, MaxSessions: wl.maxSessions, TTL: 30 * time.Minute,
		QueueDepth: 256, BatchSize: 16, Quantized: wl.quant, State: state,
	}
}

func listenLoopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// serveHTTP serves h on a fresh loopback listener.
func (s *inproc) serveHTTP(h http.Handler) (string, error) {
	ln, addr, err := listenLoopback()
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + addr, nil
}

// startInproc builds the stack. tr is nil for the run with spans off.
func startInproc(wl *workload, tr *tracer, workDir string) (*inproc, error) {
	s := &inproc{}
	build := fleet.DefaultBuild
	if tr != nil {
		build = func(p string) (*fleet.Model, error) {
			start := tr.now()
			m, err := fleet.DefaultBuild(p)
			tr.add(span{layer: lBuild, slot: -1, start: start, end: tr.now()})
			return m, err
		}
	}
	reg := fleet.NewRegistry(build)
	m, err := reg.Get(profile)
	if err != nil {
		return nil, err
	}
	if wl.quant {
		if err := m.EnableInt8(); err != nil {
			return nil, err
		}
	}

	wrap := func(l layer, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return spanHandler{tr: tr, layer: l, next: h}
	}
	replicas := 1
	if wl.routed {
		replicas = 2
	}
	var backends []cluster.Backend
	for i := 0; i < replicas; i++ {
		var state fleet.StateStore
		if wl.store {
			dir := filepath.Join(workDir, fmt.Sprintf("inproc-state-%d", i))
			s.stateDirs = append(s.stateDirs, dir)
			fs, err := fleet.NewFileStateStore(dir)
			if err != nil {
				s.close()
				return nil, err
			}
			state = fs
			if tr != nil {
				state = &spanStore{tr: tr, inner: fs, next: map[string]int{}}
			}
		}
		mgr := fleet.NewManager(managerConfig(wl, reg, state))
		s.mgrs = append(s.mgrs, mgr)
		metrics := &serve.Metrics{}
		base, err := s.serveHTTP(wrap(lHTTP, serve.New(serve.Config{Manager: mgr, RequestTimeout: roundTimeout, Metrics: metrics})))
		if err != nil {
			s.close()
			return nil, err
		}
		s.front = base
		backends = append(backends, cluster.Backend{Name: fmt.Sprintf("shard-%d", i), HTTPURL: base, StreamAddr: "127.0.0.1:1"})
		if wl.mode == loadgen.ModeStream {
			ln, addr, err := listenLoopback()
			if err != nil {
				s.close()
				return nil, err
			}
			s.sAddr = addr
			s.stream = serve.NewStreamServer(serve.StreamConfig{
				Manager: mgr, Metrics: metrics, RoundTimeout: roundTimeout,
				IdleTimeout: 5 * time.Minute, ResumeTTL: 2 * time.Minute, ResumeCap: 4096,
			})
			go func() { _ = s.stream.Serve(spanListener{Listener: ln, tr: tr, down: &s.down}) }()
		}
	}
	if wl.routed {
		r, err := cluster.NewRouter(cluster.DefaultVNodes, backends...)
		if err != nil {
			s.close()
			return nil, err
		}
		if s.front, err = s.serveHTTP(wrap(lRouter, r)); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *inproc) close() {
	if s.stream != nil {
		s.stream.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	for _, m := range s.mgrs {
		m.Close()
	}
	for _, d := range s.stateDirs {
		_ = os.RemoveAll(d)
	}
}

// openSessions opens the workload's sessions: through the router when it
// is routed (the router mints the ids), otherwise with direct
// Manager.Create calls, which mint the same ids the HTTP front would.
func (s *inproc) openSessions(t *target, n int) error {
	if len(s.mgrs) > 1 {
		return t.openSessions(n)
	}
	t.ids = make([]string, n)
	for i := 0; i < n; i++ {
		sess, err := s.mgrs[0].Create(profile, loadgen.UserID(i), fleet.Opts{})
		if err != nil {
			return err
		}
		t.ids[i] = sess.ID()
	}
	return nil
}

// goCounters reads the Go runtime's allocation and GC-cycle totals.
func goCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// inprocOut is one in-process run.
type inprocOut struct {
	open, closed  *phase
	allocPerRound float64
	gcPerKRound   float64
	downBytes     int64
	rounds        int
	telemetryMs   float64
}

// runInproc drives the same payloads and schedule against the in-process
// stack for secs seconds.
func runInproc(wl *workload, pl *payloads, tr *tracer, workDir string, secs float64) (*inprocOut, error) {
	s, err := startInproc(wl, tr, workDir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	t := newTarget(s.front, s.sAddr, tr)
	defer t.close()
	if err := s.openSessions(t, wl.sessions); err != nil {
		return nil, err
	}
	if s.sAddr != "" {
		if err := t.connectStreams(pl.order); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	nOpen, closedDur := phaseSplit(wl, secs)
	a0, g0 := goCounters()
	open := t.run(pl, 0, nOpen, wl.rate, 0)
	a1, g1 := goCounters()
	closed := t.run(pl, nOpen, 0, 0, closedDur)
	out := &inprocOut{open: open, closed: closed, downBytes: s.down.Load()}
	if n := float64(open.completed()); n > 0 {
		out.allocPerRound = (a1 - a0) / n
		out.gcPerKRound = (g1 - g0) / n * 1000
	}
	out.rounds = open.completed() + closed.completed()
	// Manager.Telemetry at the workload's session count: the work behind
	// every /metrics scrape.
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for _, m := range s.mgrs {
			_ = m.Telemetry()
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	out.telemetryMs = median(ms)
	return out, nil
}

// probeSessions times Manager.Create for the workload's session count on a
// fresh manager and measures the live heap each session adds.
func probeSessions(wl *workload, model *fleet.Model) (createUs, heapPerSession float64, err error) {
	reg := fleet.NewRegistry(func(string) (*fleet.Model, error) { return model, nil })
	mgr := fleet.NewManager(managerConfig(wl, reg, nil))
	defer mgr.Close()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h0 := ms.HeapAlloc
	start := time.Now()
	for i := 0; i < wl.sessions; i++ {
		if _, err := mgr.Create(profile, loadgen.UserID(i), fleet.Opts{}); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if mgr.ActiveSessions() != wl.sessions {
		return 0, 0, fmt.Errorf("probe: %d sessions live, want %d", mgr.ActiveSessions(), wl.sessions)
	}
	n := float64(wl.sessions)
	return float64(el) / 1e3 / n, (float64(ms.HeapAlloc) - float64(h0)) / n, nil
}
