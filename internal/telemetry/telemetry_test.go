package telemetry

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// oracle is the mutex-guarded reference implementation the lock-free
// histogram is checked against.
type oracle struct {
	mu      sync.Mutex
	count   uint64
	sum     uint64
	max     uint64
	buckets [numBuckets]uint64
}

func (o *oracle) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	o.mu.Lock()
	o.count++
	o.sum += uint64(ns)
	o.buckets[bucketOf(ns)]++
	if uint64(ns) > o.max {
		o.max = uint64(ns)
	}
	o.mu.Unlock()
}

func TestHistogramConcurrentVsOracle(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	var o oracle
	var wg sync.WaitGroup
	// Snapshot concurrently with recording: values must stay internally
	// sane (no torn counters, monotone counts) even mid-stream.
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < last {
				t.Errorf("snapshot count went backwards: %d < %d", s.Count, last)
				return
			}
			last = s.Count
			// Busy-spinning would starve the recorders on a single-CPU
			// box; the test is about concurrent correctness, not spin
			// throughput.
			runtime.Gosched()
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				ns := rng.Int63n(1 << 40)
				if i%97 == 0 {
					ns = -ns // skew clamp path
				}
				h.Record(ns)
				o.record(ns)
			}
		}(int64(g + 1))
	}
	// Recorders finish first; then stop the snapshotter so the final
	// snapshot is quiescent and must match the oracle exactly.
	wg.Wait()
	close(stop)
	<-snapDone

	s := h.Snapshot()
	o.mu.Lock()
	defer o.mu.Unlock()
	if s.Count != o.count || s.Sum != o.sum || s.Max != o.max {
		t.Fatalf("snapshot mismatch: got count=%d sum=%d max=%d, want count=%d sum=%d max=%d",
			s.Count, s.Sum, s.Max, o.count, o.sum, o.max)
	}
	for i := range s.Buckets {
		if s.Buckets[i] != o.buckets[i] {
			t.Fatalf("bucket %d: got %d want %d", i, s.Buckets[i], o.buckets[i])
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	vals := []int64{0, 1, 2, 3, 1000, 1 << 20, 1<<40 + 7}
	for i, v := range vals {
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())

	var whole Histogram
	for _, v := range vals {
		whole.Record(v)
	}
	want := whole.Snapshot()
	if merged != want {
		t.Fatalf("merge mismatch:\n got  %+v\n want %+v", merged, want)
	}
}

// TestBucketBoundary checks the bucket invariant for every boundary:
// each value lands in the bucket whose bound range contains it, and
// BucketBound(i) is the largest value mapping to bucket i.
func TestBucketBoundary(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d, want 0", got)
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("bucketOf(-5) = %d, want 0", got)
	}
	for i := 1; i < 63; i++ {
		lo := int64(1) << (i - 1) // smallest value with bit length i
		hi := BucketBound(i)      // largest
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(2^%d=%d) = %d, want %d", i-1, lo, got, i)
		}
		if got := bucketOf(hi); got != i {
			t.Fatalf("bucketOf(BucketBound(%d)=%d) = %d, want %d", i, hi, got, i)
		}
		if got := bucketOf(hi + 1); got != i+1 {
			t.Fatalf("bucketOf(%d) = %d, want %d", hi+1, got, i+1)
		}
		if hi != lo*2-1 {
			t.Fatalf("BucketBound(%d) = %d, want %d", i, hi, lo*2-1)
		}
	}
	maxNS := int64(^uint64(0) >> 1)
	if got := bucketOf(maxNS); got != 63 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want 63", got)
	}
	if BucketBound(63) != maxNS {
		t.Fatalf("BucketBound(63) = %d, want MaxInt64", BucketBound(63))
	}
}

// TestBucketProperty fuzzes random values against the containment
// invariant lo <= v <= BucketBound(bucketOf(v)) with lo = bound/2+1.
func TestBucketProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		v := rng.Int63()
		b := bucketOf(v)
		hi := BucketBound(b)
		var lo int64
		if b > 0 {
			lo = int64(1) << (b - 1)
		}
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d range [%d, %d]", v, b, lo, hi)
		}
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// 100 observations at exactly 1000ns: every quantile is the bucket
	// bound clamped to Max = 1000.
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if got := s.Quantile(q); got != 1000*time.Nanosecond {
			t.Fatalf("Quantile(%v) = %v, want 1µs", q, got)
		}
	}
	if s.Mean() != 1000*time.Nanosecond {
		t.Fatalf("Mean = %v, want 1µs", s.Mean())
	}
	// Bimodal: 90 fast (100ns) + 10 slow (1ms). p50 must report the
	// fast bucket, p99 the slow one.
	var h2 Histogram
	for i := 0; i < 90; i++ {
		h2.Record(100)
	}
	for i := 0; i < 10; i++ {
		h2.Record(1_000_000)
	}
	s2 := h2.Snapshot()
	if p50 := s2.Quantile(0.5); p50 > time.Microsecond {
		t.Fatalf("p50 = %v, want <= 1µs (fast mode)", p50)
	}
	if p99 := s2.Quantile(0.99); p99 < 500*time.Microsecond {
		t.Fatalf("p99 = %v, want >= 500µs (slow mode)", p99)
	}
}

// TestRecordAllocs pins the zero-allocation contract of the record path
// and of the plane's stage probe.
func TestRecordAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %v per op, want 0", n)
	}
	p := NewPlane()
	if n := testing.AllocsPerRun(1000, func() { p.Record(3, StageDispatch, 777) }); n != 0 {
		t.Fatalf("Plane.Record allocates %v per op, want 0", n)
	}
	p.SetEnabled(false)
	if n := testing.AllocsPerRun(1000, func() { p.Record(3, StageDispatch, 777) }); n != 0 {
		t.Fatalf("disabled Plane.Record allocates %v per op, want 0", n)
	}
	var nilPlane *Plane
	if n := testing.AllocsPerRun(1000, func() { nilPlane.Record(3, StageDispatch, 777) }); n != 0 {
		t.Fatalf("nil Plane.Record allocates %v per op, want 0", n)
	}
}

func TestPlaneShardingAndSnapshot(t *testing.T) {
	p := NewPlane()
	for i := 0; i < 64; i++ {
		p.Record(uint32(i), StageDispatch, int64(1000+i))
	}
	s := p.StageSnapshot(StageDispatch)
	if s.Count != 64 {
		t.Fatalf("merged count = %d, want 64", s.Count)
	}
	hs := p.Histograms()
	if hs["dispatch"].Count != 64 {
		t.Fatalf("Histograms()[dispatch].Count = %d, want 64", hs["dispatch"].Count)
	}
	if hs["e2e"].Count != 0 {
		t.Fatalf("Histograms()[e2e].Count = %d, want 0", hs["e2e"].Count)
	}
	if len(hs) != int(numStages) {
		t.Fatalf("Histograms() has %d stages, want %d", len(hs), numStages)
	}
}

func TestPlaneDisabled(t *testing.T) {
	p := NewPlane()
	p.SetEnabled(false)
	p.Record(0, StageE2E, 500)
	if s := p.StageSnapshot(StageE2E); s.Count != 0 {
		t.Fatalf("disabled plane recorded %d observations", s.Count)
	}
	var nilPlane *Plane
	nilPlane.Record(0, StageE2E, 500) // must not panic
	nilPlane.Trace("id", "class", StageE2E, 1, OutcomeDelivered)
	if nilPlane.Enabled() || nilPlane.TraceEnabled() {
		t.Fatal("nil plane reports enabled")
	}
}

func TestTraceSamplingAndFailureBypass(t *testing.T) {
	p := NewPlane()
	p.SetNode("n1")
	var mu sync.Mutex
	var got []TraceEvent
	p.SetTraceHook(func(ev TraceEvent) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}, 10)
	if !p.TraceEnabled() {
		t.Fatal("TraceEnabled = false after SetTraceHook")
	}
	for i := 0; i < 100; i++ {
		p.Trace("ev", "demo.Quote", StageDispatch, 100, OutcomeDelivered)
	}
	// Failure outcomes bypass sampling entirely.
	for i := 0; i < 5; i++ {
		p.Trace("ev", "demo.Quote", StageDispatch, 0, ReasonExpired.String())
	}
	mu.Lock()
	defer mu.Unlock()
	var delivered, expired int
	for _, ev := range got {
		switch ev.Outcome {
		case OutcomeDelivered:
			delivered++
		case "expired":
			expired++
		}
		if ev.Node != "n1" || ev.Stage != "dispatch" {
			t.Fatalf("bad event %+v", ev)
		}
	}
	if delivered != 10 {
		t.Fatalf("sampled %d delivered spans of 100 at 1-in-10, want 10", delivered)
	}
	if expired != 5 {
		t.Fatalf("got %d expired spans, want all 5 (failures bypass sampling)", expired)
	}
	p.SetTraceHook(nil, 0)
	if p.TraceEnabled() {
		t.Fatal("TraceEnabled = true after removing hook")
	}
}

func TestNowMonotone(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Fatalf("Now not increasing: %d then %d", a, b)
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkPlaneRecord(b *testing.B) {
	p := NewPlane()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Record(uint32(i), StageDispatch, int64(i))
	}
}

func BenchmarkPlaneRecordDisabled(b *testing.B) {
	p := NewPlane()
	p.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Record(uint32(i), StageDispatch, int64(i))
	}
}
