package fleet

import (
	"fmt"
	"sync"
)

// Externalized session state. A single origin-serve process keeps session
// state in memory; horizontal scale-out moves the authoritative copy into a
// StateStore shared by every replica, with replica memory demoted to a
// validated cache. The serving layer writes one combined snapshot per
// classified round (core state plus the stream front's opaque attachment),
// so whatever a replica held when it died is reconstructible by the next
// owner from the store alone.
//
// Versioning discipline: a snapshot's version is the session slot it was
// taken at (rounds classified so far). Writes carry their version and a
// store accepts a write only when it is at least as new as what it holds —
// a delayed write from a session's previous owner, racing the new owner
// after a migration, is dropped as stale. Equal-version overwrites are
// accepted: the session state machine is deterministic, so two replicas
// that classified the same round from the same inputs wrote identical
// bytes, and the overwrite is a no-op by content.

// StateStore is the shared, authoritative session-state store. All methods
// must be safe for concurrent use.
type StateStore interface {
	// Load returns the newest snapshot for a session id. ok is false when
	// the store holds nothing for the id.
	Load(id string) (blob []byte, ver int64, ok bool, err error)
	// Put stores blob as the session's snapshot at version ver. Writes
	// older than the stored version are silently dropped (see the
	// versioning discipline above).
	Put(id string, ver int64, blob []byte) error
	// Delete removes the session's snapshot (no-op when absent).
	Delete(id string) error
}

// MemStateStore is the in-process StateStore an in-process replica cluster
// shares. The zero value is not usable; call NewMemStateStore.
type MemStateStore struct {
	mu sync.Mutex
	m  map[string]memStateEntry
}

type memStateEntry struct {
	ver  int64
	blob []byte
}

// NewMemStateStore returns an empty in-memory state store.
func NewMemStateStore() *MemStateStore {
	return &MemStateStore{m: map[string]memStateEntry{}}
}

// Load implements StateStore.
func (s *MemStateStore) Load(id string) ([]byte, int64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return nil, 0, false, nil
	}
	return append([]byte(nil), e.blob...), e.ver, true, nil
}

// Put implements StateStore.
func (s *MemStateStore) Put(id string, ver int64, blob []byte) error {
	if ver < 0 {
		return fmt.Errorf("fleet: negative state version %d", ver)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[id]; ok && ver < e.ver {
		return nil // stale write from a previous owner
	}
	s.m[id] = memStateEntry{ver: ver, blob: append([]byte(nil), blob...)}
	return nil
}

// Delete implements StateStore.
func (s *MemStateStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
	return nil
}

// Len reports how many sessions the store holds (tests and gauges).
func (s *MemStateStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
