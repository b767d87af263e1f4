package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so that a
// spread computed here is the spread the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	m := median(append([]float64(nil), xs...))
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// verdict applies a metric's bound and the pairs rule to the runs of a
// parent (a) and a change (b):
//
//   - improved: b wins at least nine tenths of all pairs (ties count
//     for neither side) and the medians differ by more than the distance
//     between a's quartiles;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: neither, but a's own spread is wider than the bound
//     and not every run of b beats every run of a;
//   - unchanged: otherwise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	beats := func(x, y float64) bool {
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, len(a)*len(b)
	for _, x := range a {
		for _, y := range b {
			if beats(y, x) {
				wins++
			}
		}
	}
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	q1, q3 := quartiles(a)
	worse := (mb - ma) / math.Abs(ma)
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3-q1:
		return "improved"
	case worse > bound:
		return "regressed"
	case spread(a) > bound && wins < pairs:
		return "unresolved"
	}
	return "unchanged"
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints a verdict for every workload and every end-to-end
// metric of BENCHMARK.json and every timing, with each side's median and
// quartiles. It exits 1 when anything regressed or any run failed.
func compareFiles(s *spec, pathA, pathB string) int {
	ra, err := readRecords(pathA)
	if err == nil {
		var rb []record
		if rb, err = readRecords(pathB); err == nil {
			return compareRecords(s, ra, rb)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareRecords(s *spec, ra, rb []record) int {
	values := func(recs []record, workload, name string) (vals []float64, failed int) {
		for _, r := range recs {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			if !r.Correct {
				failed++
			}
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
			} else if m, ok := r.Timings[name]; ok {
				vals = append(vals, m.Value)
			}
		}
		return vals, failed
	}
	code := 0
	fmt.Printf("%-24s %-22s %-10s %34s %34s %6s\n", "workload", "metric", "verdict", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "bound")
	for _, w := range s.Workloads {
		for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), timings...) {
			a, fa := values(ra, w.Name, m.Name)
			b, fb := values(rb, w.Name, m.Name)
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if fa+fb > 0 {
				v = "regressed" // a gain does not count when operations fail
			}
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-24s %-22s %-10s %34s %34s %6.2f\n", w.Name, m.Name, v, describe(a), describe(b), m.Bound)
		}
	}
	return code
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "no runs"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(append([]float64(nil), xs...)), q1, q3, len(xs))
}
