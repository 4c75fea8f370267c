package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"origin/internal/comm"
	"origin/internal/loadgen"
)

// The generator is one process with two load connections on any machine,
// so the offered load never changes with the host.
const (
	genProcs     = 2
	loadConns    = 2
	roundTimeout = 10 * time.Second
	// roundHeader carries a round's index on traced runs, so spans taken
	// inside the router and the replica share the client's round id.
	roundHeader = "X-Bench-Round"
	// openShare is the share of a run's measured seconds spent in the
	// open-loop phase; the closed loop gets the rest.
	openShare = 0.6
	// streamWindow is how many rounds a stream connection keeps in flight
	// in the closed loop. With one, the phase measures the round trip of
	// two lone rounds and every store stall stops the server; with a few,
	// it measures the server's capacity.
	streamWindow = 4
)

// phaseSplit returns the open-loop round count and the closed-loop
// duration of a run of secs seconds.
func phaseSplit(wl *workload, secs float64) (nOpen int, closed time.Duration) {
	return int(wl.rate * secs * openShare), time.Duration(secs * (1 - openShare) * float64(time.Second))
}

// countingConn counts the bytes the generator writes to one socket.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// loadConn is one load connection: an HTTP client pinned to one keep-alive
// TCP connection, plus, on stream workloads, one session's binary stream.
type loadConn struct {
	written atomic.Int64
	http    *http.Client

	conn net.Conn
	br   *bufio.Reader
}

func newLoadConn() *loadConn {
	lc := &loadConn{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &lc.written}, nil
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	lc.http = &http.Client{Transport: tr, Timeout: roundTimeout}
	return lc
}

func (lc *loadConn) close() {
	if lc.conn != nil {
		lc.conn.Close()
	}
	lc.http.CloseIdleConnections()
}

// post sends one request and returns the status and body.
func (lc *loadConn) post(url string, body []byte, round int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if round >= 0 {
		req.Header.Set(roundHeader, strconv.Itoa(round))
	}
	resp, err := lc.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// target is the stack under load as the generator sees it: the HTTP front
// (a replica or the router), the stream front, and the opened sessions.
type target struct {
	base       string
	streamAddr string
	ids        []string
	conns      []*loadConn
	tr         *tracer // nil unless spans are on
}

func newTarget(base, streamAddr string, tr *tracer) *target {
	t := &target{base: base, streamAddr: streamAddr, tr: tr}
	for i := 0; i < loadConns; i++ {
		t.conns = append(t.conns, newLoadConn())
	}
	return t
}

func (t *target) close() {
	for _, lc := range t.conns {
		lc.close()
	}
}

// openSessions creates n sessions through the HTTP front, session i on
// load connection i mod 2, and records the ids the server minted.
func (t *target) openSessions(n int) error {
	t.ids = make([]string, n)
	errs := make([]error, len(t.conns))
	var wg sync.WaitGroup
	for c := range t.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += len(t.conns) {
				body := []byte(fmt.Sprintf(`{"profile":%q,"user":%d}`, profile, loadgen.UserID(i)))
				status, resp, err := t.conns[c].post(t.base+"/v1/sessions", body, -1)
				if err == nil && status != http.StatusCreated {
					err = fmt.Errorf("create session %d: status %d: %s", i, status, bytes.TrimSpace(resp))
				}
				var cr struct {
					ID string `json:"id"`
				}
				if err == nil {
					err = json.Unmarshal(resp, &cr)
				}
				if err != nil {
					errs[c] = err
					return
				}
				t.ids[i] = cr.ID
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// connectStreams opens load connection c's binary stream for session
// order[c] — the session every round on that connection belongs to.
func (t *target) connectStreams(order []int) error {
	for c, lc := range t.conns {
		raw, err := net.DialTimeout("tcp", t.streamAddr, 5*time.Second)
		if err != nil {
			return err
		}
		id := t.ids[order[c]]
		if t.tr != nil {
			t.tr.addrs.Store(raw.LocalAddr().String(), id)
		}
		lc.conn = countingConn{raw, &lc.written}
		lc.br = bufio.NewReaderSize(raw, 64<<10)
		hello, err := comm.EncodeHello(append([]byte(nil), comm.StreamMagic[:]...), comm.Hello{Version: comm.StreamVersion, Session: id})
		if err != nil {
			return err
		}
		if _, err := lc.conn.Write(hello); err != nil {
			return err
		}
		_ = raw.SetReadDeadline(time.Now().Add(roundTimeout))
		for {
			f, err := comm.ReadFrame(lc.br)
			if err != nil {
				return fmt.Errorf("stream hello for %s: %w", id, err)
			}
			if f.Type == comm.FrameHeartbeat {
				continue
			}
			if f.Type != comm.FrameHelloAck {
				return fmt.Errorf("stream hello for %s: got frame type %d", id, f.Type)
			}
			break
		}
	}
	return nil
}

// rec is one attempted round. Times are offsets from the phase start; in
// the closed loop a round is due when it is sent.
type rec struct {
	sess, k         int
	due, sent, done time.Duration
	class, slot     int
	ok              bool
}

// phase is the outcome of one load phase.
type phase struct {
	recs    []rec
	elapsed time.Duration
}

func (ph *phase) completed() int {
	n := 0
	for i := range ph.recs {
		if ph.recs[i].ok {
			n++
		}
	}
	return n
}

// run drives one phase from global round first. With rate > 0 it is the
// open loop: rounds first..last-1, round j due at (j-first)/rate, each
// timed from its due time. With rate == 0 it is the closed loop: both
// connections run flat out until the duration has passed or a stream
// session's generated rounds run out.
func (t *target) run(pl *payloads, first, last int, rate float64, dur time.Duration) *phase {
	start := time.Now()
	out := make([][]rec, len(t.conns))
	var wg sync.WaitGroup
	for c := range t.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if t.streamAddr != "" {
				out[c] = t.streamWorker(c, pl, first, last, rate, dur, start)
			} else {
				out[c] = t.httpWorker(c, pl, first, last, rate, dur, start)
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	for _, rs := range out {
		ph.recs = append(ph.recs, rs...)
	}
	return ph
}

// nextRound returns connection c's first global round at or after first.
// Connection c carries the rounds j ≡ c (mod 2), so a session (there is an
// even number of them, in a fixed cyclic order) always rides the same
// connection and its rounds go out in order.
func (t *target) nextRound(c, first int) int {
	j := first
	for j%len(t.conns) != c {
		j++
	}
	return j
}

// pace holds the calling goroutine until the round's due time. The worker
// goroutine owns its OS thread with a 1 ns timer slack, so a due round is
// sent within tens of microseconds instead of the ~0.5 ms a runtime timer
// overshoots by.
func pace(start time.Time, due time.Duration) {
	if w := due - time.Since(start); w > 0 {
		ts := syscall.NsecToTimespec(int64(w))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

func dueOf(j, first int, rate float64) time.Duration {
	return time.Duration(float64(j-first) / rate * float64(time.Second))
}

func (t *target) httpWorker(c int, pl *payloads, first, last int, rate float64, dur time.Duration, start time.Time) []rec {
	lockPacer()
	defer runtime.UnlockOSThread()
	lc := t.conns[c]
	var out []rec
	for j := t.nextRound(c, first); ; j += len(t.conns) {
		var due time.Duration
		if rate > 0 {
			if j >= last {
				break
			}
			due = dueOf(j, first, rate)
			pace(start, due)
		} else if due = time.Since(start); due >= dur {
			break
		}
		s, k := pl.round(j)
		r := rec{sess: s, k: k, due: due, class: -1, slot: -1}
		r.sent = time.Since(start)
		r.class, r.slot, r.ok = t.httpRound(lc, s, k, pl.body(s, k))
		r.done = time.Since(start)
		if t.tr != nil {
			t.tr.add(span{layer: lRound, sess: t.ids[s], slot: k, start: t.tr.at(start, r.sent), end: t.tr.at(start, r.done)})
		}
		out = append(out, r)
	}
	return out
}

// httpRound posts one classify round; ok means a 200 with a result.
func (t *target) httpRound(lc *loadConn, s, k int, body []byte) (class, slot int, ok bool) {
	round := -1
	if t.tr != nil {
		round = k
	}
	status, resp, err := lc.post(t.base+"/v1/sessions/"+t.ids[s]+"/classify", body, round)
	if err != nil || status != http.StatusOK {
		return -1, -1, false
	}
	var cr struct {
		Slot  int `json:"slot"`
		Class int `json:"class"`
	}
	if json.Unmarshal(resp, &cr) != nil {
		return -1, -1, false
	}
	return cr.Class, cr.Slot, true
}

// streamWorker drives one session's persistent stream: a writer that sends
// each round's frames when due (open loop) or while fewer than
// streamWindow rounds are in flight (closed loop), and a reader that
// matches results to rounds in order.
func (t *target) streamWorker(c int, pl *payloads, first, last int, rate float64, dur time.Duration, start time.Time) []rec {
	lc := t.conns[c]
	// Sized to the most rounds one phase can put in flight: the open loop
	// may pipeline every round it schedules.
	inflight := make(chan *rec, pl.wl.pool)
	slots := make(chan struct{}, streamWindow) // closed loop: rounds in flight
	var failed atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for r := range inflight {
			if !failed.Load() {
				t.readResult(lc, r, start, &failed)
			}
			if rate == 0 {
				<-slots
			}
		}
	}()

	lockPacer()
	defer runtime.UnlockOSThread()
	var out []*rec
	for j := t.nextRound(c, first); ; j += len(t.conns) {
		var due time.Duration
		if rate > 0 {
			if j >= last {
				break
			}
			due = dueOf(j, first, rate)
			pace(start, due)
		} else {
			slots <- struct{}{}
			if due = time.Since(start); due >= dur || failed.Load() {
				break
			}
		}
		s, k := pl.round(j)
		if pl.exhausted(k) {
			break
		}
		r := &rec{sess: s, k: k, due: due, class: -1, slot: -1}
		out = append(out, r)
		if failed.Load() {
			continue // the connection is gone: the round is attempted and failed
		}
		r.sent = time.Since(start)
		if _, err := lc.conn.Write(pl.body(s, k)); err != nil {
			failed.Store(true)
			continue
		}
		inflight <- r
	}
	close(inflight)
	<-readerDone
	recs := make([]rec, len(out))
	for i, r := range out {
		recs[i] = *r
	}
	return recs
}

// readResult reads frames until round r's result arrives. An error frame
// or a read error fails the connection; collect checks the result's slot.
func (t *target) readResult(lc *loadConn, r *rec, start time.Time, failed *atomic.Bool) {
	for {
		_ = lc.conn.SetReadDeadline(time.Now().Add(roundTimeout))
		f, err := comm.ReadFrame(lc.br)
		if err != nil {
			failed.Store(true)
			return
		}
		switch f.Type {
		case comm.FrameHeartbeat:
			continue
		case comm.FrameResult:
			res, err := comm.DecodeStreamResult(f.Payload)
			if err != nil {
				failed.Store(true)
				return
			}
			r.done = time.Since(start)
			r.class, r.slot, r.ok = res.Class, res.Slot, true
			if t.tr != nil {
				t.tr.add(span{layer: lRound, sess: t.ids[r.sess], slot: r.k, start: t.tr.at(start, r.sent), end: t.tr.at(start, r.done)})
			}
			return
		default:
			failed.Store(true)
			return
		}
	}
}
