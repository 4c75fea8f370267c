package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"origin/internal/loadgen"
	"origin/internal/synth"
)

// workload is one traffic mix and the stack it runs against. Rates and
// sizes are fixed here, never derived from the machine, so two commits are
// always offered the same load.
type workload struct {
	name string
	mode loadgen.Mode
	// sessions is how many sessions set-up opens; rounds go to them in a
	// seeded order.
	sessions int
	// rate is the fixed open-loop rate in rounds per second, about a fifth
	// of the closed-loop saturation rate measured when the benchmark was
	// added, so that CPU steal by other guests does not push the open loop
	// past capacity (see METRICS.md).
	rate float64
	// pool is how many rounds per session are generated up front. JSON
	// rounds are independent, so a session's round k reuses body k mod pool;
	// stream frames carry sequence numbers, so a stream session that runs
	// out ends its closed loop early.
	pool int
	// maxSessions is origin-serve's -max-sessions.
	maxSessions int
	store       bool // origin-serve -state-dir <fresh dir>
	quant       bool // origin-serve -quant
	routed      bool // origin-router over two replicas
}

var workloads = []*workload{
	{name: "stream-durable", mode: loadgen.ModeStream, sessions: 2, rate: 400, pool: 24576, maxSessions: 4096, store: true},
	{name: "votes-fleet", mode: loadgen.ModeVotes, sessions: 50000, rate: 1000, pool: 4, maxSessions: 131072},
	{name: "windows-routed", mode: loadgen.ModeWindows, sessions: 256, rate: 250, pool: 48, maxSessions: 4096, quant: true, routed: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// payloads is every request byte a workload sends for one seed, generated
// before any server starts.
type payloads struct {
	wl *workload
	// bodies[s][k] is session s's round k: a JSON classify body, or the
	// round's enveloped IMU frames back to back.
	bodies [][][]byte
	// truth[s][k] is the generator's ground-truth activity of that round.
	truth [][]int
	// order[j % sessions] is the session that global round j goes to; the
	// session's round index is j / sessions.
	order []int
	// digest is the SHA-256 over every payload byte, session by session,
	// then the send order.
	digest string
}

// profile is the one dataset profile every workload serves.
const profile = "MHEALTH"

// generate builds a workload's payloads for a seed from the same
// deterministic generators the repository's replay oracles use.
func generate(wl *workload, seed int64) (*payloads, error) {
	cfg := loadgen.Config{
		Profile: profile, Users: wl.sessions, Requests: wl.pool, Seed: seed,
		Mode: wl.mode, SensorsPerRequest: 1, VoteFlip: 0.2, StreamHop: loadgen.DefaultStreamHop,
	}
	prof := synth.MHEALTHProfile()
	p := &payloads{
		wl:     wl,
		bodies: make([][][]byte, wl.sessions),
		truth:  make([][]int, wl.sessions),
	}
	errs := make([]error, genProcs)
	var wg sync.WaitGroup
	for w := 0; w < genProcs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < wl.sessions; s += genProcs {
				if err := p.genSession(&cfg, prof, s); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	p.order = rand.New(rand.NewSource(seed)).Perm(wl.sessions)

	h := sha256.New()
	for s := range p.bodies {
		for _, b := range p.bodies[s] {
			h.Write(b)
		}
	}
	var u [4]byte
	for _, s := range p.order {
		binary.LittleEndian.PutUint32(u[:], uint32(s))
		h.Write(u[:])
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

func (p *payloads) genSession(cfg *loadgen.Config, prof *synth.Profile, s int) error {
	n := p.wl.pool
	bodies, truth := make([][]byte, n), make([]int, n)
	if p.wl.mode == loadgen.ModeStream {
		fs := loadgen.NewFrameSource(cfg, prof, s)
		for k := 0; k < n; k++ {
			frames, err := fs.Next(k)
			if err != nil {
				return err
			}
			var b []byte
			for _, f := range frames {
				b = append(b, f.Bytes...)
			}
			bodies[k], truth[k] = b, fs.Truth(k)
		}
	} else {
		st := loadgen.NewStream(cfg, prof, s)
		for k := 0; k < n; k++ {
			req := st.Next(k)
			b, err := json.Marshal(&req)
			if err != nil {
				return fmt.Errorf("encode round %d of session %d: %w", k, s, err)
			}
			bodies[k], truth[k] = b, st.Truth(k)
		}
	}
	p.bodies[s], p.truth[s] = bodies, truth
	return nil
}

// round maps global round j to its session and the session's round index.
func (p *payloads) round(j int) (s, k int) {
	n := len(p.order)
	return p.order[j%n], j / n
}

// exhausted reports whether a session has no round k to send.
func (p *payloads) exhausted(k int) bool {
	return p.wl.mode == loadgen.ModeStream && k >= p.wl.pool
}

// body is session s's round k request bytes; truth is its ground truth.
func (p *payloads) body(s, k int) []byte { return p.bodies[s][k%p.wl.pool] }
func (p *payloads) truthOf(s, k int) int { return p.truth[s][k%p.wl.pool] }

// fingerprints is perfbench/fingerprints.json: the recorded input digest
// of each workload per seed, and the default seed.
type fingerprints struct {
	DefaultSeed int64                        `json:"default_seed"`
	SHA256      map[string]map[string]string `json:"sha256"`
}

func loadFingerprints(dir string) (*fingerprints, error) {
	b, err := os.ReadFile(filepath.Join(dir, "fingerprints.json"))
	if err != nil {
		return nil, err
	}
	var f fingerprints
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return &f, nil
}

// defaultSeed is the seed a run uses when none is given.
const defaultSeed = 1

// recordFingerprints regenerates every workload's inputs for seeds
// 0..n-1 and writes their digests to fingerprints.json. Re-record only when
// a change to the generators (loadgen, synth, the comm encoders) is meant
// to change the workloads.
func recordFingerprints(dir string, n int) error {
	f := fingerprints{DefaultSeed: defaultSeed, SHA256: map[string]map[string]string{}}
	for _, wl := range workloads {
		f.SHA256[wl.name] = map[string]string{}
		for seed := int64(0); seed < int64(n); seed++ {
			p, err := generate(wl, seed)
			if err != nil {
				return err
			}
			f.SHA256[wl.name][strconv.FormatInt(seed, 10)] = p.digest
		}
	}
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "fingerprints.json"), append(b, '\n'), 0o644)
}

// check compares a digest with the recorded one. recorded is false when
// the file has no entry for this workload and seed.
func (f *fingerprints) check(wl string, seed int64, digest string) (recorded, ok bool) {
	want, found := f.SHA256[wl][strconv.FormatInt(seed, 10)]
	return found, found && want == digest
}
