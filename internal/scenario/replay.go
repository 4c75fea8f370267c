package scenario

import (
	"fmt"

	"origin/internal/comm"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

// SerialReplay executes the spec's lineages one at a time with no network,
// no queue, and no concurrency: each lineage's payload stream is regenerated
// (lineageGen is shared with the live engine), pushed through the same wire
// codec and stream assembler the server uses, and classified on a fresh
// facade session. The returned traces are the ground truth the live run's
// canonical section must match on the zero-fault path.
//
// newModel must build the same model the live server serves for the spec's
// profile — the replay bar compares decisions, so the weights must agree.
func SerialReplay(spec *Spec, newModel func(profile string) (*fleet.Model, error)) ([]LineageTrace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profile, err := loadgen.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	pl := buildPlan(spec)
	traces := make([]LineageTrace, len(pl.lineages))
	for _, lp := range pl.lineages {
		model, err := newModel(spec.Profile)
		if err != nil {
			return nil, fmt.Errorf("scenario: replay lineage %d: %w", lp.Index, err)
		}
		// Zero Opts mirrors the engine's CreateSessionRequest, which leaves
		// StaleLimit/Quorum/Freeze to server defaults.
		sess, err := fleet.NewSession(fmt.Sprintf("replay-%d", lp.Index), lp.Wearer, model, fleet.Opts{})
		if err != nil {
			return nil, fmt.Errorf("scenario: replay lineage %d: %w", lp.Index, err)
		}
		gen := newLineageGen(spec, profile, lp)
		var asm *serve.StreamAssembler
		if lp.Stream {
			asm = serve.NewStreamAssembler(model.Sensors(), model.Window)
		}
		tr := LineageTrace{Index: lp.Index, Wearer: lp.Wearer, Born: lp.Born, Stream: lp.Stream}
		for p := lp.Born; p < lp.Die; p++ {
			gen.enterPhase(p)
			for k := 0; k < spec.Phases[p].Rounds; k++ {
				truth := gen.truth()
				var class int
				if lp.Stream {
					class, err = replayStreamRound(gen, asm, sess)
				} else {
					class, err = replayHTTPRound(gen, sess)
				}
				if err != nil {
					return nil, fmt.Errorf("scenario: replay lineage %d phase %d round %d: %w",
						lp.Index, p, k, err)
				}
				tr.Classes = append(tr.Classes, class)
				tr.Truth = append(tr.Truth, truth)
			}
		}
		traces[lp.Index] = tr
	}
	return traces, nil
}

// replayStreamRound decodes one round's frames through the wire codec and
// server-side assembler — the exact transform a live stream round's bytes
// undergo — and classifies the completed round.
func replayStreamRound(gen *lineageGen, asm *serve.StreamAssembler, sess *fleet.Session) (int, error) {
	frames, err := gen.frames()
	if err != nil {
		return 0, err
	}
	class := -1
	for _, ef := range frames {
		f, err := comm.DecodeFrameBytes(ef.Bytes)
		if err != nil {
			return 0, err
		}
		imu, err := comm.DecodeIMU(f.Payload)
		if err != nil {
			return 0, err
		}
		end, err := asm.Ingest(imu)
		if err != nil {
			return 0, err
		}
		if !end {
			continue
		}
		res, err := sess.Classify(asm.TakeRound())
		if err != nil {
			return 0, err
		}
		class = res.Class
	}
	if class < 0 {
		return 0, fmt.Errorf("round produced no end-of-round frame")
	}
	return class, nil
}

// replayHTTPRound converts one round's JSON payload through the server's
// request decoder and classifies it.
func replayHTTPRound(gen *lineageGen, sess *fleet.Session) (int, error) {
	req := gen.request()
	inputs, err := serve.Inputs(&req)
	if err != nil {
		return 0, err
	}
	res, err := sess.Classify(inputs)
	if err != nil {
		return 0, err
	}
	return res.Class, nil
}
