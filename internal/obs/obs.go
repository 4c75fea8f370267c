// Package obs is the run-telemetry (observability) layer of the
// simulator: typed counters and per-slot event tallies that make the
// coordination failures the paper talks about — aborted inferences,
// power emergencies, dropped and late wireless messages, results still
// in flight when a run ends — measurable instead of silently folded
// into accuracy numbers.
//
// A *Telemetry is created once per simulation run and threaded through
// the layers (sensor nodes, host device, comm links, the sim loop
// itself) via Attach hooks. Every Note method is nil-receiver safe, so
// an unattached layer pays a single pointer test per event and no
// allocation. The per-slot tallies are one flat slice allocated up
// front; all other state is plain integer fields, so recording an event
// never allocates.
//
// Serving does not use Telemetry: a fleet session keeps only the five
// counters it mutates, and internal/serve renders /metrics itself.
//
// The package also houses the deterministic bounded worker pool
// (pool.go) used by the experiment sweeps.
package obs

import (
	"encoding/json"
	"io"
)

// LinkDir identifies which wireless link of the body-area network a
// comm event belongs to.
type LinkDir int

const (
	// Uplink is the sensor→host result link.
	Uplink LinkDir = iota
	// Downlink is the host→sensor activation link.
	Downlink
)

// String names the direction for logs.
func (d LinkDir) String() string {
	if d == Uplink {
		return "uplink"
	}
	return "downlink"
}

// SlotCounts is the compact per-slot event tally. Fields are uint16 —
// a 250 ms slot involves a handful of sensors, so thousands of events
// per slot would indicate a simulator bug long before overflow.
type SlotCounts struct {
	// Started / Aborted / Completed count inference lifecycle events in
	// this slot (an abort is an unfinished inference displaced by a new
	// activation).
	Started   uint16 `json:"started,omitempty"`
	Aborted   uint16 `json:"aborted,omitempty"`
	Completed uint16 `json:"completed,omitempty"`
	// Emergencies counts mid-task brown-outs.
	Emergencies uint16 `json:"emergencies,omitempty"`
	// CommDrops counts messages lost on either link this slot.
	CommDrops uint16 `json:"commDrops,omitempty"`
	// CommLate counts messages delivered in a later slot than the one
	// they belong to.
	CommLate uint16 `json:"commLate,omitempty"`
	// Faults counts injected node faults (brownouts, stalls, deaths,
	// reboots) that fired this slot.
	Faults uint16 `json:"faults,omitempty"`
}

// LinkCounts is cumulative telemetry for one wireless link.
type LinkCounts struct {
	// Sent counts send attempts; Dropped the messages lost in flight;
	// Delivered the messages handed to the receiver.
	Sent      int `json:"sent"`
	Dropped   int `json:"dropped"`
	Delivered int `json:"delivered"`
	// Late counts deliveries that slipped past a slot boundary: the
	// message arrived in a later scheduler slot than the one it was
	// issued in.
	Late int `json:"late"`
	// Corrupted counts payloads bit-flipped in flight; Duplicated the
	// messages cloned in flight; Reordered the messages given extra
	// jitter delay (overtaking later sends). All are fault injections.
	Corrupted  int `json:"corrupted,omitempty"`
	Duplicated int `json:"duplicated,omitempty"`
	Reordered  int `json:"reordered,omitempty"`
	// Rejected counts delivered messages the receiver discarded as
	// invalid (corrupted payloads failing validation); DupDropped the
	// duplicate or stale deliveries the receiver's monotonic-sequence
	// gate suppressed. Both are defense actions, not losses.
	Rejected   int `json:"rejected,omitempty"`
	DupDropped int `json:"dupDropped,omitempty"`
}

// FaultCounts tallies injected node faults and the graceful-degradation
// defense actions they triggered. Link-level faults tally per-direction in
// LinkCounts.
type FaultCounts struct {
	// Brownouts counts forced capacitor drains; HarvesterStalls the
	// harvester outage windows opened; NodeDeaths the permanent node
	// failures; NodeReboots the transient restarts (in-flight inference
	// and volatile state lost).
	Brownouts       int `json:"brownouts,omitempty"`
	HarvesterStalls int `json:"harvesterStalls,omitempty"`
	NodeDeaths      int `json:"nodeDeaths,omitempty"`
	NodeReboots     int `json:"nodeReboots,omitempty"`

	// ActivationRetries counts re-activations of a node silent past its
	// deadline; ActivationFallbacks the activations redirected to the
	// next-ranked sensor; NodesMasked the mask transitions after repeated
	// silence; MaskProbes the periodic probe activations of masked nodes.
	ActivationRetries   int `json:"activationRetries,omitempty"`
	ActivationFallbacks int `json:"activationFallbacks,omitempty"`
	NodesMasked         int `json:"nodesMasked,omitempty"`
	MaskProbes          int `json:"maskProbes,omitempty"`
	// QuorumAbstentions counts slots where the host abstained (-1)
	// because fewer than the configured quorum of valid votes existed.
	QuorumAbstentions int `json:"quorumAbstentions,omitempty"`
}

// Injected returns the total number of injected node faults.
func (f FaultCounts) Injected() int {
	return f.Brownouts + f.HarvesterStalls + f.NodeDeaths + f.NodeReboots
}

// Telemetry is the run-level event record. The zero value is usable;
// NewTelemetry additionally pre-allocates the per-slot tallies. A nil
// *Telemetry is a valid no-op sink for every Note method.
type Telemetry struct {
	// Slots is the number of simulated scheduler slots.
	Slots int `json:"slots"`

	// InferencesStarted / InferencesAborted / InferencesCompleted count
	// inference lifecycle events across all nodes.
	InferencesStarted   int `json:"inferencesStarted"`
	InferencesAborted   int `json:"inferencesAborted"`
	InferencesCompleted int `json:"inferencesCompleted"`
	// PowerEmergencies counts mid-task brown-outs across all nodes.
	PowerEmergencies int `json:"powerEmergencies"`

	// Uplink / Downlink are the wireless link tallies (all zero when the
	// run modelled a perfect, instantaneous network).
	Uplink   LinkCounts `json:"uplink"`
	Downlink LinkCounts `json:"downlink"`

	// Faults tallies injected node faults and defense actions.
	Faults FaultCounts `json:"faults"`

	// FreshVotes / RecallVotes count ensemble votes cast from a
	// classification produced this slot vs. a remembered (recalled) one.
	FreshVotes  int `json:"freshVotes"`
	RecallVotes int `json:"recallVotes"`
	// AdaptationUpdates counts online confidence-matrix updates.
	AdaptationUpdates int `json:"adaptationUpdates"`

	// InFlightResultsDiscarded counts uplink results still in flight when
	// the run ended; InFlightActivationsDiscarded the undelivered
	// activation signals; InFlightInferencesAbandoned the inferences
	// still executing on a node. All three are losses the completion
	// statistics would otherwise silently misreport.
	InFlightResultsDiscarded     int `json:"inFlightResultsDiscarded"`
	InFlightActivationsDiscarded int `json:"inFlightActivationsDiscarded"`
	InFlightInferencesAbandoned  int `json:"inFlightInferencesAbandoned"`

	// PerSlot, when present, holds one tally per scheduler slot.
	PerSlot []SlotCounts `json:"perSlot,omitempty"`

	cur int // current slot index, set by BeginSlot
}

// NewTelemetry returns a Telemetry with per-slot tallies for the given
// number of scheduler slots (one allocation).
func NewTelemetry(slots int) *Telemetry {
	t := &Telemetry{Slots: slots}
	if slots > 0 {
		t.PerSlot = make([]SlotCounts, slots)
	}
	return t
}

// slot returns the current slot's tally, or nil when per-slot tallies
// are disabled.
func (t *Telemetry) slot() *SlotCounts {
	if t == nil || t.cur < 0 || t.cur >= len(t.PerSlot) {
		return nil
	}
	return &t.PerSlot[t.cur]
}

// BeginSlot marks the start of a scheduler slot: subsequent events
// tally into this slot's SlotCounts.
func (t *Telemetry) BeginSlot(slot int) {
	if t == nil {
		return
	}
	t.cur = slot
}

// NoteInferenceStarted records one inference start.
func (t *Telemetry) NoteInferenceStarted() {
	if t == nil {
		return
	}
	t.InferencesStarted++
	if s := t.slot(); s != nil {
		s.Started++
	}
}

// NoteInferenceAborted records one inference displaced unfinished.
func (t *Telemetry) NoteInferenceAborted() {
	if t == nil {
		return
	}
	t.InferencesAborted++
	if s := t.slot(); s != nil {
		s.Aborted++
	}
}

// NoteInferenceCompleted records one completed inference.
func (t *Telemetry) NoteInferenceCompleted() {
	if t == nil {
		return
	}
	t.InferencesCompleted++
	if s := t.slot(); s != nil {
		s.Completed++
	}
}

// NoteEmergencies records n mid-task brown-outs.
func (t *Telemetry) NoteEmergencies(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.PowerEmergencies += n
	if s := t.slot(); s != nil {
		s.Emergencies += uint16(n)
	}
}

// link returns the tally for the given direction.
func (t *Telemetry) link(d LinkDir) *LinkCounts {
	if d == Uplink {
		return &t.Uplink
	}
	return &t.Downlink
}

// NoteSend records one send attempt on the given link, lost in flight
// when dropped is set.
func (t *Telemetry) NoteSend(d LinkDir, dropped bool) {
	if t == nil {
		return
	}
	l := t.link(d)
	l.Sent++
	if dropped {
		l.Dropped++
		if s := t.slot(); s != nil {
			s.CommDrops++
		}
	}
}

// NoteDelivered records n deliveries on the given link.
func (t *Telemetry) NoteDelivered(d LinkDir, n int) {
	if t == nil || n <= 0 {
		return
	}
	t.link(d).Delivered += n
}

// NoteLate records one delivery on the given link that slipped past a
// slot boundary.
func (t *Telemetry) NoteLate(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).Late++
	if s := t.slot(); s != nil {
		s.CommLate++
	}
}

// NoteCorrupted records one payload bit-flipped in flight on the given
// link.
func (t *Telemetry) NoteCorrupted(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).Corrupted++
}

// NoteDuplicated records one message duplicated in flight on the given
// link.
func (t *Telemetry) NoteDuplicated(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).Duplicated++
}

// NoteReordered records one message given extra jitter delay on the given
// link.
func (t *Telemetry) NoteReordered(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).Reordered++
}

// NoteRejected records one delivered message the receiver discarded as
// invalid (the corrupted-payload defense).
func (t *Telemetry) NoteRejected(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).Rejected++
}

// NoteDupDropped records one duplicate or stale delivery suppressed by the
// receiver's monotonic-sequence gate.
func (t *Telemetry) NoteDupDropped(d LinkDir) {
	if t == nil {
		return
	}
	t.link(d).DupDropped++
}

// noteFault bumps the current slot's fault tally.
func (t *Telemetry) noteFault() {
	if s := t.slot(); s != nil {
		s.Faults++
	}
}

// NoteBrownout records one forced capacitor drain.
func (t *Telemetry) NoteBrownout() {
	if t == nil {
		return
	}
	t.Faults.Brownouts++
	t.noteFault()
}

// NoteHarvesterStall records one harvester outage window opening.
func (t *Telemetry) NoteHarvesterStall() {
	if t == nil {
		return
	}
	t.Faults.HarvesterStalls++
	t.noteFault()
}

// NoteNodeDeath records one permanent node failure.
func (t *Telemetry) NoteNodeDeath() {
	if t == nil {
		return
	}
	t.Faults.NodeDeaths++
	t.noteFault()
}

// NoteNodeReboot records one node restart (in-flight state lost).
func (t *Telemetry) NoteNodeReboot() {
	if t == nil {
		return
	}
	t.Faults.NodeReboots++
	t.noteFault()
}

// NoteActivationRetry records one re-activation of a silent node.
func (t *Telemetry) NoteActivationRetry() {
	if t == nil {
		return
	}
	t.Faults.ActivationRetries++
}

// NoteActivationFallback records one activation redirected to the
// next-ranked sensor.
func (t *Telemetry) NoteActivationFallback() {
	if t == nil {
		return
	}
	t.Faults.ActivationFallbacks++
}

// NoteNodeMasked records one node transitioning into the masked state
// after repeated silence.
func (t *Telemetry) NoteNodeMasked() {
	if t == nil {
		return
	}
	t.Faults.NodesMasked++
}

// NoteMaskProbe records one probe activation of a masked node.
func (t *Telemetry) NoteMaskProbe() {
	if t == nil {
		return
	}
	t.Faults.MaskProbes++
}

// NoteQuorumAbstention records one slot where the ensemble abstained for
// lack of a vote quorum.
func (t *Telemetry) NoteQuorumAbstention() {
	if t == nil {
		return
	}
	t.Faults.QuorumAbstentions++
}

// NoteVotes records one aggregation round's ensemble inputs: fresh
// classifications produced this slot and recalled (remembered) ones.
func (t *Telemetry) NoteVotes(fresh, recalled int) {
	if t == nil {
		return
	}
	t.FreshVotes += fresh
	t.RecallVotes += recalled
}

// NoteAdaptations records n online confidence-matrix updates.
func (t *Telemetry) NoteAdaptations(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.AdaptationUpdates += n
}

// NoteDiscardedResults records uplink results still in flight at the
// end of the run.
func (t *Telemetry) NoteDiscardedResults(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.InFlightResultsDiscarded += n
}

// NoteDiscardedActivations records activation signals still in flight
// at the end of the run.
func (t *Telemetry) NoteDiscardedActivations(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.InFlightActivationsDiscarded += n
}

// NoteAbandonedInference records one inference still executing when the
// run ended.
func (t *Telemetry) NoteAbandonedInference() {
	if t == nil {
		return
	}
	t.InFlightInferencesAbandoned++
}

// Totals returns a copy of the counters with the per-slot tallies
// dropped — the compact form used when telemetry from many runs is
// aggregated.
func (t *Telemetry) Totals() Telemetry {
	if t == nil {
		return Telemetry{}
	}
	c := *t
	c.PerSlot = nil
	c.cur = 0
	return c
}

// Merge adds o's counters into t. Per-slot tallies merge elementwise
// when both sides carry the same number of slots and are dropped
// otherwise (aggregates across runs of different lengths have no
// meaningful per-slot alignment).
func (t *Telemetry) Merge(o *Telemetry) {
	if t == nil || o == nil {
		return
	}
	t.Slots += o.Slots
	t.InferencesStarted += o.InferencesStarted
	t.InferencesAborted += o.InferencesAborted
	t.InferencesCompleted += o.InferencesCompleted
	t.PowerEmergencies += o.PowerEmergencies
	mergeLink(&t.Uplink, o.Uplink)
	mergeLink(&t.Downlink, o.Downlink)
	mergeFaults(&t.Faults, o.Faults)
	t.FreshVotes += o.FreshVotes
	t.RecallVotes += o.RecallVotes
	t.AdaptationUpdates += o.AdaptationUpdates
	t.InFlightResultsDiscarded += o.InFlightResultsDiscarded
	t.InFlightActivationsDiscarded += o.InFlightActivationsDiscarded
	t.InFlightInferencesAbandoned += o.InFlightInferencesAbandoned
	switch {
	case len(t.PerSlot) == 0 || len(o.PerSlot) == 0:
		t.PerSlot = nil
	case len(t.PerSlot) != len(o.PerSlot):
		t.PerSlot = nil
	default:
		for i := range t.PerSlot {
			a, b := &t.PerSlot[i], o.PerSlot[i]
			a.Started += b.Started
			a.Aborted += b.Aborted
			a.Completed += b.Completed
			a.Emergencies += b.Emergencies
			a.CommDrops += b.CommDrops
			a.CommLate += b.CommLate
			a.Faults += b.Faults
		}
	}
}

func mergeLink(dst *LinkCounts, src LinkCounts) {
	dst.Sent += src.Sent
	dst.Dropped += src.Dropped
	dst.Delivered += src.Delivered
	dst.Late += src.Late
	dst.Corrupted += src.Corrupted
	dst.Duplicated += src.Duplicated
	dst.Reordered += src.Reordered
	dst.Rejected += src.Rejected
	dst.DupDropped += src.DupDropped
}

func mergeFaults(dst *FaultCounts, src FaultCounts) {
	dst.Brownouts += src.Brownouts
	dst.HarvesterStalls += src.HarvesterStalls
	dst.NodeDeaths += src.NodeDeaths
	dst.NodeReboots += src.NodeReboots
	dst.ActivationRetries += src.ActivationRetries
	dst.ActivationFallbacks += src.ActivationFallbacks
	dst.NodesMasked += src.NodesMasked
	dst.MaskProbes += src.MaskProbes
	dst.QuorumAbstentions += src.QuorumAbstentions
}

// CompletionRate returns InferencesCompleted/InferencesStarted
// (0 when nothing started).
func (t *Telemetry) CompletionRate() float64 {
	if t == nil || t.InferencesStarted == 0 {
		return 0
	}
	return float64(t.InferencesCompleted) / float64(t.InferencesStarted)
}

// WriteJSON writes the telemetry as indented JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
