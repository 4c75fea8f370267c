package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"origin/internal/comm"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/tensor"
)

// served is what the generator saw for one session: the class of each of
// its rounds, in order, and how many of its attempted rounds failed.
type served struct {
	classes []int
	failed  int
	badSlot int
}

// collect folds a run's rounds into per-session sequences. A round that
// failed, or whose result answered another slot, leaves the session
// incomplete.
func collect(sessions int, phases ...*phase) []served {
	out := make([]served, sessions)
	for _, ph := range phases {
		for _, r := range ph.recs {
			sv := &out[r.sess]
			for len(sv.classes) <= r.k {
				sv.classes = append(sv.classes, -2)
			}
			switch {
			case !r.ok:
				sv.failed++
			case r.slot != r.k:
				sv.badSlot++
			default:
				sv.classes[r.k] = r.class
			}
		}
	}
	return out
}

// maxCapture bounds the inputs the replay keeps for the direct layer
// timings.
const maxCapture = 2048

// replayOut is the serial replay's verdict plus inputs it assembled on the
// way, which the direct layer timings reuse.
type replayOut struct {
	rounds, mismatches, incomplete int
	firstBad                       string

	sensors []int
	windows []*tensor.Tensor
	votes   [][]fleet.SensorInput // each round's fresh votes, as vote-only inputs
	frames  [][]byte              // the first session's IMU frames, in order
	states  []fleet.SessionState  // final states of replayed sessions
}

// replay re-derives every served class by driving each session's exact
// request bytes through a fresh fleet.Session on the same model, serially:
// frames through the wire codec and serve.StreamAssembler, JSON through
// serve.Inputs.
func replay(model *fleet.Model, pl *payloads, sv []served) *replayOut {
	out := &replayOut{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < genProcs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < len(sv); s += genProcs {
				if len(sv[s].classes) == 0 {
					continue
				}
				r := replaySession(model, pl, s, sv[s], w == 0 && s == 0)
				mu.Lock()
				out.merge(r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

func (o *replayOut) merge(r *replayOut) {
	o.rounds += r.rounds
	o.mismatches += r.mismatches
	o.incomplete += r.incomplete
	if o.firstBad == "" {
		o.firstBad = r.firstBad
	}
	for i, w := range r.windows {
		if len(o.windows) < maxCapture {
			o.windows = append(o.windows, w)
			o.sensors = append(o.sensors, r.sensors[i])
		}
	}
	for _, v := range r.votes {
		if len(o.votes) < maxCapture {
			o.votes = append(o.votes, v)
		}
	}
	if len(r.frames) > 0 {
		o.frames = r.frames
	}
	if len(o.states) < maxCapture {
		o.states = append(o.states, r.states...)
	}
}

func replaySession(model *fleet.Model, pl *payloads, s int, sv served, keepFrames bool) *replayOut {
	out := &replayOut{}
	fail := func(format string, args ...any) {
		if out.firstBad == "" {
			out.firstBad = fmt.Sprintf("session %d: ", s) + fmt.Sprintf(format, args...)
		}
	}
	if sv.failed > 0 || sv.badSlot > 0 {
		out.incomplete++
		fail("%d failed rounds, %d results for the wrong slot", sv.failed, sv.badSlot)
	}
	sess, err := fleet.NewSession("replay", loadgen.UserID(s), model, fleet.Opts{})
	if err != nil {
		out.mismatches++
		fail("%v", err)
		return out
	}
	var asm *serve.StreamAssembler
	if pl.wl.mode == loadgen.ModeStream {
		asm = serve.NewStreamAssembler(model.Sensors(), model.Window)
	}
	for k, got := range sv.classes {
		if got == -2 {
			out.incomplete++
			fail("round %d never completed", k)
			break
		}
		inputs, err := roundInputs(asm, pl.body(s, k), keepFrames && len(out.frames) < maxCapture, &out.frames)
		if err != nil {
			out.mismatches++
			fail("round %d: %v", k, err)
			break
		}
		for _, in := range inputs {
			if in.Window != nil && len(out.windows) < maxCapture {
				out.windows = append(out.windows, in.Window)
				out.sensors = append(out.sensors, in.Sensor)
			}
		}
		res, err := sess.Classify(inputs)
		if err != nil {
			out.mismatches++
			fail("round %d: %v", k, err)
			break
		}
		out.rounds++
		if res.Class != got {
			out.mismatches++
			fail("round %d: served class %d, replay %d", k, got, res.Class)
		}
		if len(out.votes) < maxCapture {
			v := make([]fleet.SensorInput, len(res.Votes))
			for i, vi := range res.Votes {
				v[i] = fleet.SensorInput{Sensor: vi.Sensor, Class: vi.Class, Confidence: vi.Confidence}
			}
			out.votes = append(out.votes, v)
		}
	}
	out.states = append(out.states, sess.State(nil))
	return out
}

// roundInputs turns one round's request bytes into classify inputs the way
// the server does.
func roundInputs(asm *serve.StreamAssembler, body []byte, keep bool, frames *[][]byte) ([]fleet.SensorInput, error) {
	if asm == nil {
		var req serve.ClassifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return serve.Inputs(&req)
	}
	for len(body) > 0 {
		if len(body) < comm.StreamEnvelopeOverhead {
			return nil, fmt.Errorf("truncated frame")
		}
		n := comm.StreamEnvelopeOverhead + int(binary.LittleEndian.Uint16(body[1:3]))
		if n > len(body) {
			return nil, fmt.Errorf("truncated frame")
		}
		if keep {
			*frames = append(*frames, body[:n])
		}
		f, err := comm.DecodeFrameBytes(body[:n])
		if err != nil {
			return nil, err
		}
		imu, err := comm.DecodeIMU(f.Payload)
		if err != nil {
			return nil, err
		}
		end, err := asm.Ingest(imu)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		if end {
			if len(body) > 0 {
				return nil, fmt.Errorf("frames after the end of the round")
			}
			return asm.TakeRound(), nil
		}
	}
	return nil, fmt.Errorf("round has no end-of-round frame")
}
