package main

import (
	"context"
	"fmt"

	"govents"
	"govents/filter"
	"govents/obvent"
)

// Frozen run parameters. BENCHMARK.json cannot carry them (its keys are
// fixed), so they live here and in README.md; changing one is a
// benchmark correction, not a tuning knob.
const (
	// defaultSeed is used when -seed is not given.
	defaultSeed = 1
	// defaultSeconds is the measuring time of one run (BENCHMARK.json
	// run_seconds): half open loop, half closed loop, split over the
	// rounds.
	defaultSeconds = 20
	// window bounds published-but-undelivered events in the capacity
	// phase, so the backlog cannot grow and the delivered rate is the
	// sustainable one by construction.
	window = 256
	// warmupSeconds of paced publishes close every set-up.
	warmupSeconds = 1.0
	// rounds is how many fresh set-ups an untraced run measures on;
	// every end-to-end metric is the median round.
	rounds = 3
	// stallAfter without delivery progress aborts the workload.
	stallAfter = 5.0
	// traceEvery is the WithTraceHook sampling rate of traced runs.
	traceEvery = 64
)

// Body is the state every benchmark event carries: its position in the
// phase's schedule, the wall-clock instant it was due (both processes
// share one machine), the key the filters read, and filler that brings
// the struct to about 60 bytes.
type Body struct {
	Seq        int64
	SentNs     int64
	Phase      int32
	Key        int32
	A, B, C, D float64
}

// GetKey is the accessor the migratable filters name (paper LP2).
func (b Body) GetKey() int64 { return int64(b.Key) }

// The three delivery classes the workloads drive.
type (
	FIFOEvent struct {
		obvent.Base
		obvent.FIFOOrderBase
		Body
	}
	PlainEvent struct {
		obvent.Base
		Body
	}
	CertEvent struct {
		obvent.Base
		obvent.CertifiedBase
		Body
		Pad []byte
	}
)

// filterSpec is one subscription's migratable filter, small enough to
// evaluate in the oracle without the filter package.
type filterSpec struct {
	Op string // "" (unfiltered), "lt" or "eq"
	K  int64
}

func (f filterSpec) expr() *filter.Expr {
	switch f.Op {
	case "lt":
		return filter.Path("GetKey").Lt(filter.Int(f.K))
	case "eq":
		return filter.Path("GetKey").Eq(filter.Int(f.K))
	}
	return nil
}

func (f filterSpec) pass(key int32) bool {
	switch f.Op {
	case "lt":
		return int64(key) < f.K
	case "eq":
		return int64(key) == f.K
	}
	return true
}

// workload is one frozen traffic mix; BENCHMARK.json says why each was
// chosen. The lo rates are 25% of the seed's measured capacity_eps,
// rounded to two significant figures (see README.md, "Rate
// calibration").
type workload struct {
	Name      string
	Class     string // fifo | plain | cert
	Placement govents.Placement
	Keys      int32          // keys are uniform over [0, Keys)
	Subs      [][]filterSpec // [subscriber domain][subscription]
	LoRate    int            // open-loop events/s
	Window    int
	PadBytes  int
	Durable   bool
}

func repeatSubs(n int, f func(i int) filterSpec) []filterSpec {
	out := make([]filterSpec, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

var workloads = []workload{
	{
		Name:      "wire_fifo_1to1",
		Class:     "fifo",
		Placement: govents.AtPublisher,
		Keys:      100,
		Subs:      [][]filterSpec{{{}}},
		LoRate:    6700,
		Window:    window,
	},
	{
		Name:      "fanout_fifo_1to4",
		Class:     "fifo",
		Placement: govents.AtPublisher,
		Keys:      100,
		Subs: [][]filterSpec{
			{{Op: "lt", K: 100}}, {{Op: "lt", K: 50}}, {{Op: "lt", K: 10}}, {{Op: "lt", K: 0}},
		},
		LoRate: 4100,
		Window: window,
	},
	{
		Name:      "dispatch_plain_500subs",
		Class:     "plain",
		Placement: govents.AtSubscriber,
		Keys:      10,
		Subs:      [][]filterSpec{repeatSubs(500, func(i int) filterSpec { return filterSpec{Op: "eq", K: int64(i % 10)} })},
		LoRate:    2900,
		Window:    window,
	},
	{
		Name:      "cert_durable_1k",
		Class:     "cert",
		Placement: govents.AtPublisher,
		Keys:      100,
		Subs:      [][]filterSpec{{{}}},
		LoRate:    3400,
		Window:    window,
		PadBytes:  1024,
		Durable:   true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) numSubs() int {
	n := 0
	for _, d := range w.Subs {
		n += len(d)
	}
	return n
}

// expectPerKey[k] is how many deliveries an event with key k owes.
func (w *workload) expectPerKey() []int32 {
	out := make([]int32, w.Keys)
	for k := range out {
		for _, d := range w.Subs {
			for _, f := range d {
				if f.pass(int32(k)) {
					out[k]++
				}
			}
		}
	}
	return out
}

// destsPerKey[k] is how many subscriber domains an event with key k
// must reach under publisher-side filtering.
func (w *workload) destsPerKey() []int32 {
	out := make([]int32, w.Keys)
	for k := range out {
		for _, d := range w.Subs {
			for _, f := range d {
				if f.pass(int32(k)) {
					out[k]++
					break
				}
			}
		}
	}
	return out
}

// newEvent builds the obvent of the workload's class around a body.
func (w *workload) newEvent(b Body, pad []byte) govents.Obvent {
	switch w.Class {
	case "fifo":
		return FIFOEvent{Body: b}
	case "cert":
		return CertEvent{Body: b, Pad: pad}
	}
	return PlainEvent{Body: b}
}

// subscribe installs one subscription of the workload's class whose
// handler sees only the body. Certified subscriptions are durable, so
// the staging inbox and its acknowledgements are on the path.
func (w *workload) subscribe(d *govents.Domain, id string, f filterSpec, h func(*Body)) error {
	var err error
	switch w.Class {
	case "fifo":
		_, err = govents.Subscribe(d, f.expr(), func(e FIFOEvent) { h(&e.Body) })
	case "cert":
		_, err = govents.SubscribeDurable(d, id, func(e CertEvent) { h(&e.Body) })
	default:
		_, err = govents.Subscribe(d, f.expr(), func(e PlainEvent) { h(&e.Body) })
	}
	return err
}

// domainOptions are the Open options both ends share.
func (w *workload) domainOptions(tr govents.Transport, dir string, traced bool, hook func(govents.TraceEvent)) []govents.Option {
	opts := []govents.Option{
		govents.WithTransport(tr),
		govents.WithPlacement(w.Placement),
		govents.WithTelemetry(traced),
	}
	if traced {
		opts = append(opts, govents.WithTraceHook(hook, traceEvery))
	}
	if w.Durable {
		// SyncBatch: the fsync latency of a shared sandbox disk is not
		// this repository's property.
		opts = append(opts, govents.WithDurability(dir),
			govents.WithDurabilityTuning(govents.DurabilityTuning{Sync: govents.SyncBatch}))
	}
	return opts
}

var bg = context.Background()
