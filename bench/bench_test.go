package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke test re-executes it as the sub-host.
func TestMain(m *testing.M) {
	if os.Getenv(subhostEnv) != "" {
		os.Exit(subhostMain())
	}
	os.Exit(m.Run())
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {99999, 0.999}, {100000, 0.9999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(999, 0.99) || !supports(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples to have 10 beyond it")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample must read 0")
	}
}

// A hiccup that ruins one window must not move the windowed p99, and a
// window too small to support a p99 must be left out.
func TestWindowedQuantile(t *testing.T) {
	window := func(n int, base, tail int64) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = base
			if i >= n-n/50 { // the top 2%
				w[i] = tail
			}
		}
		return w
	}
	windows := [][]int64{
		window(2000, 100, 900), window(2000, 100, 1000), window(2000, 100, 1100),
		window(2000, 50_000, 90_000), // the hiccup
		window(500, 100, 7),          // unsupported: fewer than 1000 samples
	}
	got, used := windowedQuantile(windows, 0.99)
	if used != 4 {
		t.Fatalf("used %d windows, want 4", used)
	}
	if got != 1050 { // median of 900, 1000, 1100, 90000
		t.Fatalf("windowed p99 = %v, want 1050", got)
	}
	if _, used := windowedQuantile([][]int64{window(10, 1, 2)}, 0.99); used != 0 {
		t.Fatal("a window without support was used")
	}
}

func TestSummarize(t *testing.T) {
	var lat []int64
	var win []int
	for i := 0; i < 20000; i++ {
		lat = append(lat, int64(i%1000))
		win = append(win, i/2000)
	}
	s := summarize(lat, win)
	if s.Samples != 20000 || s.Windows != 10 || s.Top != 0.999 || s.P999 == 0 {
		t.Fatalf("summary %+v", s)
	}
	if s.P50 != 499 {
		t.Fatalf("p50 = %v, want 499", s.P50)
	}
}

// The same seed gives the same inputs and the same oracle; another seed
// gives others.
func TestScheduleAndOracleDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := newSchedule(7, 3, w.Keys), newSchedule(7, 3, w.Keys)
		other := newSchedule(8, 3, w.Keys)
		same, differs := true, false
		hist := make([]int, w.Keys)
		const n = 20000
		for seq := int64(0); seq < n; seq++ {
			if a.key(seq) != b.key(seq) {
				same = false
			}
			if a.key(seq) != other.key(seq) {
				differs = true
			}
			hist[a.key(seq)]++
		}
		if !same || !differs {
			t.Fatalf("%s: same=%v differs=%v", w.Name, same, differs)
		}
		for k, c := range hist {
			if want := float64(n) / float64(w.Keys); math.Abs(float64(c)-want) > 0.25*want {
				t.Errorf("%s: key %d drawn %d times, want about %.0f", w.Name, k, c, want)
			}
		}
		// The per-subscription oracle and the per-event oracle count the
		// same deliveries.
		expect := w.expectPerKey()
		var perEvent, perSub int64
		for seq := int64(0); seq < n; seq++ {
			perEvent += int64(expect[a.key(seq)])
		}
		for _, d := range w.Subs {
			for _, f := range d {
				perSub += int64(len(a.expected(f, n)))
			}
		}
		if perEvent != perSub || perEvent == 0 {
			t.Errorf("%s: oracle disagrees with itself: %d per event, %d per subscription", w.Name, perEvent, perSub)
		}
		if b1, b2 := a.body(5, 99), b.body(5, 99); b1 != b2 {
			t.Errorf("%s: bodies differ for one seed", w.Name)
		}
	}
}

// The ledger must count what the oracle says went wrong.
func TestLedgerVerify(t *testing.T) {
	w, err := workloadByName("fanout_fifo_1to4")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	req := &request{Phase: 1, T0: 0, Latency: true, MaxEvents: n, Hint: n}
	feed := func(skip, dup, swap int64) *phaseReport {
		l := newLedger(w, 11, req)
		sub := 0
		for _, d := range w.Subs {
			for _, f := range d {
				seqs := l.sched.expected(f, n)
				if sub == 0 && swap >= 0 {
					seqs[swap], seqs[swap+1] = seqs[swap+1], seqs[swap]
				}
				for _, seq := range seqs {
					if sub == 0 && int64(seq) == skip {
						continue
					}
					b := l.sched.body(int64(seq), 1)
					l.deliver(sub, &b)
					if sub == 0 && int64(seq) == dup {
						l.deliver(sub, &b)
					}
				}
				sub++
			}
		}
		return l.verify(n)
	}
	clean := feed(-1, -1, -1)
	if clean.failed() != 0 || clean.Completed != n || clean.Expected != clean.Deliveries {
		t.Fatalf("clean run: %+v", clean)
	}
	if r := feed(10, -1, -1); r.Missing != 1 || r.failed() != 1 || r.Completed != n-1 {
		t.Fatalf("one missing: %+v", r)
	}
	if r := feed(-1, 20, -1); r.Duplicate != 1 || r.failed() != 1 {
		t.Fatalf("one duplicate: %+v", r)
	}
	if r := feed(-1, -1, 30); r.Misordered != 1 || r.failed() != 1 {
		t.Fatalf("one swap: %+v", r)
	}
	// A delivery the filter rejects is a failure too.
	l := newLedger(w, 11, req)
	var rejected int64 = -1
	for seq := int64(0); seq < n; seq++ {
		if !w.Subs[2][0].pass(l.sched.key(seq)) {
			rejected = seq
			break
		}
	}
	b := l.sched.body(rejected, 1)
	l.deliver(2, &b)
	if r := l.verify(0); r.Unexpected != 1 {
		t.Fatalf("unexpected delivery: %+v", r)
	}
	// Another phase's event is stray, not counted against this one.
	b.Phase = 9
	l.deliver(2, &b)
	if l.stray.Load() != 1 {
		t.Fatal("stray delivery not counted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 95, 125}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, true, "unchanged"},
		{"faster", steady, shift(steady, 1.2), true, "improved"},
		{"slower", steady, shift(steady, 0.8), true, "regressed"},
		{"lower is better, lower", steady, shift(steady, 0.8), false, "improved"},
		{"lower is better, higher", steady, shift(steady, 1.2), false, "regressed"},
		{"within bound", steady, shift(steady, 0.95), true, "unchanged"},
		{"noise wider than bound", noisy, shift(noisy, 1.02), true, "unresolved"},
		{"no runs", steady, nil, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJoinTrace(t *testing.T) {
	spans := []publishSpan{
		{Phase: "lo", Seq: 0, StartNs: 1000, DurNs: 50},
		{Phase: "lo", Seq: 1, StartNs: 2000, DurNs: 50},
	}
	recs := []hookRecord{
		{EventID: "a", Stage: "e2e", DurNs: 300, AtNs: 1310},  // stamp 1010: inside span 0
		{EventID: "b", Stage: "e2e", DurNs: 300, AtNs: 2320},  // stamp 2020: inside span 1
		{EventID: "b", Stage: "e2e", DurNs: 400, AtNs: 2420},  // second delivery of b
		{EventID: "c", Stage: "e2e", DurNs: 10, AtNs: 500000}, // no span there
	}
	events, unmatched := joinTrace(spans, recs)
	if len(events) != 2 || unmatched != 1 {
		t.Fatalf("%d events, %d unmatched", len(events), unmatched)
	}
	if events[0].Seq != 0 || events[1].Seq != 1 || len(events[1].Hooks) != 2 {
		t.Fatalf("joined wrongly: %+v", events)
	}
}

// TestSmoke runs every workload for one second, untraced and traced,
// and holds what it emits to BENCHMARK.json: every workload and metric
// named there, nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the two-process benchmark")
	}
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	outDir := t.TempDir()
	for i, named := range s.Workloads {
		w := &workloads[i]
		if named.Name != w.Name {
			t.Fatalf("workload %d is %s in BENCHMARK.json and %s in the program", i, named.Name, w.Name)
		}
		for trace := 0; trace <= 1; trace++ {
			res, _ := runWorkload(w, 3, 1, trace == 1, outDir)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if err := s.check(trace, res.Metrics); err != nil {
				t.Errorf("%s trace %d: %v", w.Name, trace, err)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", w.Name, trace, name, m.Value)
				}
			}
		}
	}
}
