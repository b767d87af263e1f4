package main

import "math/rand"

// schedule derives everything a phase's inputs depend on from the seed:
// the key of each event, hence (through the workload's filters) the
// exact set of Seq every subscription must receive. Both processes
// build it from the same (seed, phase), so the oracle needs no channel
// of its own.
type schedule struct {
	seed  uint64
	phase int32
	keys  int32
}

func newSchedule(seed int64, phase int32, keys int32) schedule {
	return schedule{seed: uint64(seed), phase: phase, keys: keys}
}

// key is a splitmix64 hash of (seed, phase, seq), reduced to the key
// space: uniform, and computable for any seq without a table.
func (s schedule) key(seq int64) int32 {
	z := s.seed*0x9E3779B97F4A7C15 + uint64(s.phase)*0xD1B54A32D192ED03 + uint64(seq) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int32(z % uint64(s.keys))
}

// body builds event seq of the schedule, due at sentNs.
func (s schedule) body(seq, sentNs int64) Body {
	k := s.key(seq)
	return Body{Seq: seq, SentNs: sentNs, Phase: s.phase, Key: k,
		A: float64(k) + 0.5, B: float64(seq), C: 80.25, D: 1e6}
}

// expected returns, in publication order, the Seq below n that a
// subscription with filter f must receive.
func (s schedule) expected(f filterSpec, n int64) []uint32 {
	out := make([]uint32, 0, n)
	for seq := int64(0); seq < n; seq++ {
		if f.pass(s.key(seq)) {
			out = append(out, uint32(seq))
		}
	}
	return out
}

// pad is the certified workload's incompressible payload filler.
func pad(seed int64, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
