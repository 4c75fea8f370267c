package fleet

import (
	"encoding/binary"
	"fmt"
	"math"

	"origin/internal/ensemble"
	"origin/internal/host"
)

// Versioned session codec. A SessionState snapshot is everything a replica
// needs to continue a session another replica started: identity, per-session
// options, the round counter, the host device's recall store and
// anticipation, the adapted confidence matrix, the serving telemetry
// counters, and an opaque attachment the stream front uses for its
// window-assembly lineage (internal/serve owns that encoding; fleet carries
// it without interpreting a byte).
//
// Wire layout: a 4-byte magic, a uvarint codec version, then version-1
// sections. Strings are uvarint length + bytes; signed integers are zigzag
// varints; floats travel as raw IEEE-754 bits inside the embedded binary
// matrix section (ensemble.AppendBinary). The decoder is fuzzed: damaged
// input must be rejected, never panic and never over-allocate.

// sessionMagic prefixes every session snapshot.
var sessionMagic = [4]byte{'O', 'S', 'S', '1'}

// SessionCodecVersion is the current snapshot codec version. Decoders accept
// exactly the versions they know; an unknown version fails loudly so a mixed
// fleet cannot half-parse a newer replica's snapshot.
const SessionCodecVersion = 1

// Decode caps — a corrupted length cannot drive a huge allocation.
const (
	maxSessionID      = 255
	maxSessionProfile = 255
	maxRecallEntries  = 4096
	maxAttachment     = 1 << 22
)

// SessionCounters are the serving telemetry counters a session keeps and
// migrates with it: rounds served, the fresh and recalled votes that entered
// them, online confidence-matrix updates and quorum abstentions. A session's
// host device records into them through *SessionCounters (a host.Tally).
type SessionCounters struct {
	Slots             int `json:"slots"`
	FreshVotes        int `json:"freshVotes"`
	RecallVotes       int `json:"recallVotes"`
	AdaptationUpdates int `json:"adaptationUpdates"`
	QuorumAbstentions int `json:"quorumAbstentions"`
}

// NoteVotes records one round's fresh and recalled votes (host.Tally).
func (c *SessionCounters) NoteVotes(fresh, recalled int) {
	c.FreshVotes += fresh
	c.RecallVotes += recalled
}

// NoteQuorumAbstention records one abstained round (host.Tally).
func (c *SessionCounters) NoteQuorumAbstention() { c.QuorumAbstentions++ }

// NoteAdaptations records n confidence-matrix updates (host.Tally).
func (c *SessionCounters) NoteAdaptations(n int) { c.AdaptationUpdates += n }

// minus returns the counts c gained since o.
func (c SessionCounters) minus(o SessionCounters) SessionCounters {
	return SessionCounters{
		Slots:             c.Slots - o.Slots,
		FreshVotes:        c.FreshVotes - o.FreshVotes,
		RecallVotes:       c.RecallVotes - o.RecallVotes,
		AdaptationUpdates: c.AdaptationUpdates - o.AdaptationUpdates,
		QuorumAbstentions: c.QuorumAbstentions - o.QuorumAbstentions,
	}
}

// SessionState is the portable snapshot of one serving session.
type SessionState struct {
	ID      string
	User    int64
	Profile string
	Opts    Opts
	// Slot is the number of rounds classified — also the snapshot's store
	// version (see StateStore).
	Slot     int
	Device   host.DeviceState
	Matrix   *ensemble.Matrix
	Counters SessionCounters
	// Attachment is the stream front's opaque lineage section (nil for
	// sessions served over HTTP only).
	Attachment []byte
}

const (
	sessOptsFreeze  = 0x01
	sessRecallValid = 0x01
)

// EncodeSessionState renders a snapshot in the current codec version.
func EncodeSessionState(st SessionState) ([]byte, error) {
	if st.ID == "" || len(st.ID) > maxSessionID {
		return nil, fmt.Errorf("fleet: session id %q not encodable", st.ID)
	}
	if st.Profile == "" || len(st.Profile) > maxSessionProfile {
		return nil, fmt.Errorf("fleet: profile %q not encodable", st.Profile)
	}
	if st.Slot < 0 || st.Opts.StaleLimit < 0 || st.Opts.Quorum < 0 {
		return nil, fmt.Errorf("fleet: negative snapshot fields")
	}
	if len(st.Device.Recall) == 0 || len(st.Device.Recall) > maxRecallEntries {
		return nil, fmt.Errorf("fleet: snapshot has %d recall entries", len(st.Device.Recall))
	}
	if st.Matrix == nil {
		return nil, fmt.Errorf("fleet: snapshot without a matrix")
	}
	if len(st.Attachment) > maxAttachment {
		return nil, fmt.Errorf("fleet: attachment %d bytes exceeds %d", len(st.Attachment), maxAttachment)
	}
	b := append([]byte(nil), sessionMagic[:]...)
	b = binary.AppendUvarint(b, SessionCodecVersion)
	b = appendString(b, st.ID)
	b = appendZigzag64(b, st.User)
	b = appendString(b, st.Profile)
	b = binary.AppendUvarint(b, uint64(st.Opts.StaleLimit))
	b = binary.AppendUvarint(b, uint64(st.Opts.Quorum))
	var oflags byte
	if st.Opts.Freeze {
		oflags |= sessOptsFreeze
	}
	b = append(b, oflags)
	b = binary.AppendUvarint(b, uint64(st.Slot))

	// Device section.
	b = binary.AppendUvarint(b, uint64(len(st.Device.Recall)))
	for _, e := range st.Device.Recall {
		b = appendRecall(b, e)
	}
	b = appendZigzag64(b, int64(st.Device.Anticipated))
	b = appendRecall(b, st.Device.LastFresh)
	b = binary.AppendUvarint(b, uint64(st.Device.Received))
	b = binary.AppendUvarint(b, uint64(st.Device.AdaptsApplied))

	// Counters section.
	for _, v := range []int{st.Counters.Slots, st.Counters.FreshVotes, st.Counters.RecallVotes,
		st.Counters.AdaptationUpdates, st.Counters.QuorumAbstentions} {
		if v < 0 {
			return nil, fmt.Errorf("fleet: negative telemetry counter")
		}
		b = binary.AppendUvarint(b, uint64(v))
	}

	// Matrix section (self-delimiting).
	b = st.Matrix.AppendBinary(b)

	// Attachment section.
	b = binary.AppendUvarint(b, uint64(len(st.Attachment)))
	b = append(b, st.Attachment...)
	return b, nil
}

// DecodeSessionState parses a snapshot, validating every field. The device
// section is range-checked again by host.Device.Restore at install time
// against the live model geometry; here only structural sanity is enforced.
func DecodeSessionState(b []byte) (SessionState, error) {
	var st SessionState
	if len(b) < len(sessionMagic) || string(b[:4]) != string(sessionMagic[:]) {
		return st, fmt.Errorf("fleet: bad session snapshot magic")
	}
	d := &stateReader{b: b, off: 4}
	if v := d.uvarint(); v != SessionCodecVersion {
		if d.err == nil {
			return st, fmt.Errorf("fleet: unsupported session codec version %d (have %d)", v, SessionCodecVersion)
		}
		return st, fmt.Errorf("fleet: malformed session snapshot header")
	}
	st.ID = d.str(maxSessionID)
	st.User = d.zigzag()
	st.Profile = d.str(maxSessionProfile)
	st.Opts.StaleLimit = d.count(math.MaxInt32)
	st.Opts.Quorum = d.count(math.MaxInt32)
	oflags := d.byte()
	st.Opts.Freeze = oflags&sessOptsFreeze != 0
	st.Slot = d.count(math.MaxInt32)
	if d.err != nil || st.ID == "" || st.Profile == "" || oflags&^byte(sessOptsFreeze) != 0 {
		return SessionState{}, fmt.Errorf("fleet: malformed session snapshot header")
	}

	n := d.count(maxRecallEntries)
	if d.err != nil || n == 0 {
		return SessionState{}, fmt.Errorf("fleet: malformed recall section")
	}
	st.Device.Recall = make([]host.RecallState, n)
	for i := range st.Device.Recall {
		st.Device.Recall[i] = d.recall()
	}
	st.Device.Anticipated = int(d.zigzag())
	st.Device.LastFresh = d.recall()
	st.Device.Received = d.count(math.MaxInt32)
	st.Device.AdaptsApplied = d.count(math.MaxInt32)

	st.Counters.Slots = d.count(math.MaxInt32)
	st.Counters.FreshVotes = d.count(math.MaxInt32)
	st.Counters.RecallVotes = d.count(math.MaxInt32)
	st.Counters.AdaptationUpdates = d.count(math.MaxInt32)
	st.Counters.QuorumAbstentions = d.count(math.MaxInt32)
	if d.err != nil {
		return SessionState{}, fmt.Errorf("fleet: malformed session snapshot: %v", d.err)
	}

	m, consumed, err := ensemble.DecodeBinary(d.b[d.off:])
	if err != nil {
		return SessionState{}, fmt.Errorf("fleet: session snapshot matrix: %w", err)
	}
	d.off += consumed
	st.Matrix = m

	an := d.count(maxAttachment)
	if d.err != nil {
		return SessionState{}, fmt.Errorf("fleet: malformed attachment section")
	}
	if an > 0 {
		st.Attachment = d.bytes(an)
	}
	if d.err != nil || d.off != len(d.b) {
		return SessionState{}, fmt.Errorf("fleet: session snapshot has trailing or missing bytes")
	}
	return st, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendZigzag64(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

func appendRecall(b []byte, e host.RecallState) []byte {
	var flags byte
	if e.Valid {
		flags |= sessRecallValid
	}
	b = append(b, flags)
	b = appendZigzag64(b, int64(e.Class))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Confidence))
	return binary.AppendUvarint(b, uint64(e.Slot))
}

// stateReader is a sticky-error cursor over a snapshot (the same pattern as
// comm's payloadReader, kept package-local to avoid exporting it).
type stateReader struct {
	b   []byte
	off int
	err error
}

func (d *stateReader) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s", msg)
	}
}

func (d *stateReader) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *stateReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint bounded by max, as an int.
func (d *stateReader) count(max int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.fail("count out of range")
		return 0
	}
	return int(v)
}

func (d *stateReader) zigzag() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *stateReader) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("truncated bytes")
		return nil
	}
	v := append([]byte(nil), d.b[d.off:d.off+n]...)
	d.off += n
	return v
}

func (d *stateReader) str(max int) string {
	n := d.count(max)
	return string(d.bytes(n))
}

func (d *stateReader) f64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *stateReader) recall() host.RecallState {
	flags := d.byte()
	if d.err == nil && flags&^byte(sessRecallValid) != 0 {
		d.fail("unknown recall flags")
	}
	class := int(d.zigzag())
	conf := d.f64()
	slot := d.count(math.MaxInt32)
	if d.err == nil && (math.IsNaN(conf) || math.IsInf(conf, 0) || conf < 0) {
		d.fail("invalid recall confidence")
	}
	if d.err == nil && (class < -1 || class > math.MaxInt32) {
		d.fail("recall class out of range")
	}
	return host.RecallState{Class: class, Confidence: conf, Slot: slot, Valid: flags&sessRecallValid != 0}
}
