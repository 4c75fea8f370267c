package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"origin/internal/comm"
	"origin/internal/fleet"
)

// layer names one seam a span wraps.
type layer uint8

const (
	lRound     layer = iota // bench.round: the generator's send → result
	lRouter                 // the cluster.Router http.Handler
	lHTTP                   // the serve.New http.Handler
	lDownlink               // a stream-front net.Conn Write
	lStoreLoad              // fleet.StateStore.Load
	lStorePut               // fleet.StateStore.Put
	lBuild                  // the fleet.NewRegistry build function
	nLayers
)

var layerNames = [nLayers]string{"bench_round", "cluster_router", "serve_http", "serve_downlink", "fleet_store_load", "fleet_store_put", "fleet_build"}

// layerDepth orders the seams from the outside in: a span's children are
// the same round's spans of greater depth inside its interval.
var layerDepth = [nLayers]int{0, 1, 2, 2, 3, 3, 0}

// span is one timed call through a seam. (sess, slot) is the round id;
// slot is -1 for work that belongs to no round (set-up, scrapes).
type span struct {
	layer      layer
	sess       string
	slot       int
	start, end int64 // ns since the tracer's epoch
	bytes      int
}

// tracer keeps spans in memory; they are written out once, when the run
// ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// addrs maps a stream client's local address to its session id, so the
	// server side of the connection can tag its writes.
	addrs sync.Map
	// blobs holds store snapshots for the codec timings.
	blobs [][]byte
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a phase-relative offset to tracer time.
func (t *tracer) at(phaseStart time.Time, off time.Duration) int64 {
	return int64(phaseStart.Sub(t.epoch) + off)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one tab-separated line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tsession\tslot\tstart_ns\tend_ns\tbytes")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", layerNames[s.layer], s.sess, s.slot, s.start, s.end, s.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHandler times an http.Handler. The round id comes from the classify
// path and the generator's round header.
type spanHandler struct {
	tr    *tracer
	layer layer
	next  http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	end := h.tr.now()
	sess, slot := "", -1
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/"); ok {
		if id, ok := strings.CutSuffix(rest, "/classify"); ok {
			sess = id
			if k, err := strconv.Atoi(r.Header.Get(roundHeader)); err == nil {
				slot = k
			}
		}
	}
	h.tr.add(span{layer: h.layer, sess: sess, slot: slot, start: start, end: end})
}

// spanStore wraps a fleet.StateStore. A put at version v stores round v-1;
// a load belongs to the round after the session's last put.
type spanStore struct {
	tr    *tracer
	inner fleet.StateStore

	mu   sync.Mutex
	next map[string]int
}

// maxBlobs bounds the snapshots kept for the codec timings.
const maxBlobs = 512

func (s *spanStore) Load(id string) ([]byte, int64, bool, error) {
	start := s.tr.now()
	b, v, ok, err := s.inner.Load(id)
	end := s.tr.now()
	s.mu.Lock()
	slot, seen := s.next[id]
	s.mu.Unlock()
	if !seen {
		slot = -1
	}
	s.tr.add(span{layer: lStoreLoad, sess: id, slot: slot, start: start, end: end, bytes: len(b)})
	return b, v, ok, err
}

func (s *spanStore) Put(id string, ver int64, blob []byte) error {
	start := s.tr.now()
	err := s.inner.Put(id, ver, blob)
	end := s.tr.now()
	s.mu.Lock()
	s.next[id] = int(ver)
	s.mu.Unlock()
	s.tr.add(span{layer: lStorePut, sess: id, slot: int(ver) - 1, start: start, end: end, bytes: len(blob)})
	s.tr.mu.Lock()
	if ver > 0 && len(s.tr.blobs) < maxBlobs {
		s.tr.blobs = append(s.tr.blobs, append([]byte(nil), blob...))
	}
	s.tr.mu.Unlock()
	return err
}

func (s *spanStore) Delete(id string) error { return s.inner.Delete(id) }

// spanListener wraps the stream front's listener: every accepted
// connection counts the bytes the server writes and, when spans are on,
// times each write and tags it with the last result slot it carries.
type spanListener struct {
	net.Listener
	tr   *tracer
	down *atomic.Int64
}

func (l spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spanConn{Conn: c, tr: l.tr, down: l.down}, nil
}

type spanConn struct {
	net.Conn
	tr   *tracer
	down *atomic.Int64
	sess string
}

func (c *spanConn) Write(b []byte) (int, error) {
	if c.tr == nil {
		n, err := c.Conn.Write(b)
		c.down.Add(int64(n))
		return n, err
	}
	start := c.tr.now()
	n, err := c.Conn.Write(b)
	end := c.tr.now()
	c.down.Add(int64(n))
	if c.sess == "" {
		if id, ok := c.tr.addrs.Load(c.RemoteAddr().String()); ok {
			c.sess = id.(string)
		}
	}
	c.tr.add(span{layer: lDownlink, sess: c.sess, slot: lastResultSlot(b), start: start, end: end, bytes: n})
	return n, err
}

// lastResultSlot returns the slot of the last result frame in a write, or
// -1 when it carries none (acks, heartbeats).
func lastResultSlot(b []byte) int {
	slot := -1
	for len(b) >= comm.StreamEnvelopeOverhead {
		n := comm.StreamEnvelopeOverhead + int(binary.LittleEndian.Uint16(b[1:3]))
		if n > len(b) {
			break
		}
		if f, err := comm.DecodeFrameBytes(b[:n]); err == nil && f.Type == comm.FrameResult {
			if r, err := comm.DecodeStreamResult(f.Payload); err == nil {
				slot = r.Slot
			}
		}
		b = b[n:]
	}
	return slot
}

// roundKey is a span's round id.
type roundKey struct {
	sess string
	slot int
}

// traceStats is what the spans say about the rounds they cover.
type traceStats struct {
	rounds int
	// selfNs is each layer's self time summed over the rounds: a span's
	// duration minus the part of it its child spans cover.
	selfNs [nLayers]float64
	// durUs holds each layer's span durations in microseconds.
	durUs [nLayers][]float64
	count [nLayers]int
	bytes [nLayers]int
	hopUs []float64
}

// analyze computes self times, durations and the router hop from the
// spans of classified rounds.
func (t *tracer) analyze() *traceStats {
	st := &traceStats{}
	groups := map[roundKey][]int{}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i, s := range spans {
		if s.slot < 0 || s.sess == "" {
			continue
		}
		k := roundKey{s.sess, s.slot}
		groups[k] = append(groups[k], i)
		st.durUs[s.layer] = append(st.durUs[s.layer], float64(s.end-s.start)/1e3)
		st.count[s.layer]++
		st.bytes[s.layer] += s.bytes
		if s.layer == lRound {
			st.rounds++
		}
	}
	type iv struct{ a, b int64 }
	for _, idx := range groups {
		var router, replica int64 = -1, -1
		for _, i := range idx {
			p := spans[i]
			var kids []iv
			for _, j := range idx {
				q := spans[j]
				if layerDepth[q.layer] > layerDepth[p.layer] && q.start >= p.start && q.end <= p.end {
					kids = append(kids, iv{q.start, q.end})
				}
			}
			sort.Slice(kids, func(a, b int) bool { return kids[a].a < kids[b].a })
			var covered, curA, curB int64 = 0, -1, -1
			for _, k := range kids {
				if k.a > curB {
					if curB > curA {
						covered += curB - curA
					}
					curA, curB = k.a, k.b
				} else if k.b > curB {
					curB = k.b
				}
			}
			if curB > curA {
				covered += curB - curA
			}
			st.selfNs[p.layer] += float64(p.end - p.start - covered)
			switch p.layer {
			case lRouter:
				router = p.end - p.start
			case lHTTP:
				replica = p.end - p.start
			}
		}
		if router >= 0 && replica >= 0 {
			st.hopUs = append(st.hopUs, float64(router-replica)/1e3)
		}
	}
	return st
}
