package scenario

import (
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// lineageGen generates one lineage's round payloads — the single source of
// truth shared by the live engine and the serial replayer. A lineage's
// payload stream is a pure function of (spec, lineagePlan) and the order of
// enterPhase/next calls; neither transport retries, reconnects, resumes,
// shedding nor concurrency ever touches it, which is what makes live runs
// replayable.
//
// The signal is loadgen's stream-signal generator, integrating gait phase
// across rounds AND phases with round k counted from lineage birth; on top
// of it a lineage keeps only what a day adds: per-phase truth timelines and
// gait drift, which swaps the wearer's gait parameters mid-stream without
// perturbing the RNG schedule.
type lineageGen struct {
	spec    *Spec
	profile *synth.Profile
	lp      lineagePlan

	user *synth.User
	sig  *loadgen.Signal

	tl         *synth.Timeline // current phase's truth timeline
	round      int             // rounds completed since birth (the stream slot index)
	phaseRound int             // rounds completed in the current phase
}

func newLineageGen(spec *Spec, profile *synth.Profile, lp lineagePlan) *lineageGen {
	u := synth.NewUser(lp.Wearer)
	return &lineageGen{
		spec: spec, profile: profile, lp: lp, user: u,
		sig: loadgen.NewSignal(profile, u, lp.Seed, spec.StreamHop),
	}
}

// enterPhase applies phase-entry drift (never at the birth phase — a fresh
// wearer has nothing to drift from) and builds the phase's truth timeline.
func (g *lineageGen) enterPhase(p int) {
	ph := &g.spec.Phases[p]
	if p > g.lp.Born && ph.Drift > 0 {
		g.user = g.user.Drifted(int64(p), ph.Drift)
		g.sig.SetUser(g.user)
	}
	seed := g.lp.Seed + 1_000_003*int64(p+1)
	if ph.Mix == nil {
		g.tl = synth.GenerateTimeline(g.profile, synth.TimelineConfig{
			Slots: ph.Rounds, MeanSegment: ph.MeanSegment, MinSegment: ph.MinSegment, Seed: seed,
		})
	} else {
		g.tl = synth.GenerateMixTimeline(g.profile, synth.MixTimelineConfig{
			Slots: ph.Rounds, MeanSegment: ph.MeanSegment, MinSegment: ph.MinSegment, Seed: seed,
			Mix: ph.Mix,
		})
	}
	g.phaseRound = 0
}

// truth returns the current round's ground-truth class (valid until next).
func (g *lineageGen) truth() int { return g.tl.PerSlot[g.phaseRound] }

// slot returns the server-side round index the next payload classifies as
// (rounds since birth — sessions are born with the lineage).
func (g *lineageGen) slot() int { return g.round }

// advance moves past the current round after its payload has been built.
func (g *lineageGen) advance() {
	g.round++
	g.phaseRound++
}

// frames builds the current round's encoded stream frames (stream lineages
// only) in send order; the last carries end-of-round. The caller owns the
// returned slice — resume re-sends reuse these exact bytes, so a disconnect
// never re-invokes the generator.
func (g *lineageGen) frames() ([]loadgen.EncodedFrame, error) {
	frames, err := g.sig.Frames(g.round, g.spec.SensorsPerRound, g.truth())
	g.advance()
	return frames, err
}

// request builds the current round's HTTP classify payload (window mode:
// each reporting sensor ships a full window of its continuous stream).
func (g *lineageGen) request() serve.ClassifyRequest {
	req := g.sig.Windows(g.round, g.spec.SensorsPerRound, g.truth())
	g.advance()
	return req
}
