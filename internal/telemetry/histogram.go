// Package telemetry is the engine's timing and tracing plane: lock-free
// log-bucketed latency histograms recording per-stage timings across the
// delivery pipeline, and a sampled structured event-trace hook. It counts
// nothing else: drops and lane depths are the engine's own counters
// (core.DispatchStats, core.LaneStat), which stay live with the plane
// off; a Reason here only names a trace outcome.
//
// Everything here is built for the hot path. Recording a latency is a
// handful of atomic adds with zero allocations (pinned by benchmark and
// an allocs/op test); the disabled trace path is a single atomic load;
// a fully disabled plane costs one atomic bool load per stage probe.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the histogram resolution: bucket i holds durations whose
// nanosecond value has bit length i, i.e. [2^(i-1), 2^i) ns, so 64
// buckets cover every representable duration (bucket 0 is exactly 0).
const numBuckets = 64

// Histogram is a lock-free latency histogram with power-of-two bucket
// boundaries (the HDR-style log bucketing): Record is wait-free — three
// unconditional atomic adds plus a CAS loop for the max — and Snapshot
// is a consistent-enough racing read (each counter individually exact;
// cross-counter skew is bounded by in-flight records, which is the usual
// contract for streaming histograms).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond latency to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// BucketBound returns the inclusive upper bound, in nanoseconds, of
// bucket i (2^i - 1... the largest value with bit length i). Bucket 0's
// bound is 0.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return (int64(1) << i) - 1
}

// Record adds one latency observation. Negative durations (clock skew on
// cross-node stages) clamp to zero rather than corrupting a bucket.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.max.Load()
		if uint64(ns) <= cur || h.max.CompareAndSwap(cur, uint64(ns)) {
			return
		}
	}
}

// Snapshot copies the histogram's counters into an immutable value.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of one histogram (or a merge of
// several shards of the same stage). Count/Sum/Max are in nanoseconds.
type Snapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [numBuckets]uint64
}

// Merge folds another snapshot into s (sharded histograms of one stage
// combine losslessly: bucket boundaries are identical by construction).
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket containing the q*Count-th observation, clamped to Max — the
// standard conservative estimate for log-bucketed histograms (at most
// one power of two above the true value). Returns 0 for an empty
// snapshot.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen >= rank {
			bound := BucketBound(i)
			if uint64(bound) > s.Max {
				bound = int64(s.Max)
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(s.Max)
}

// Mean returns the arithmetic mean latency, exact (Sum/Count are exact
// even though the buckets are logarithmic).
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
