package store

import "sync"

// MemSet is the in-memory subscriber-side store of a certified class:
// the set of event IDs delivered here. It implements multicast.Stager,
// so a subscriber that is sent an event again — its acknowledgement was
// lost, or arrived after the publisher's redelivery tick — delivers it
// once. The set lives as long as the process and is never pruned.
type MemSet struct {
	mu sync.Mutex
	m  map[string]bool
}

// NewMemSet returns an empty in-memory set.
func NewMemSet() *MemSet { return &MemSet{m: make(map[string]bool)} }

// Stage records id as delivered and reports whether it was new, as one
// step: a first send and its redelivery may arrive concurrently, and
// exactly one of them is fresh. Only the ID is kept; an event staged in
// memory is not there to be replayed.
func (s *MemSet) Stage(id, origin string, payload []byte) (fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[id] {
		return false, nil
	}
	s.m[id] = true
	return true, nil
}

// Has reports membership (test aid).
func (s *MemSet) Has(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id], nil
}

// Len returns the number of members (test aid).
func (s *MemSet) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m), nil
}
