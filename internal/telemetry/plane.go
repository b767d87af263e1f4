package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of the delivery pipeline. The
// histogram names exported on /metrics and by Domain.Histograms use the
// String form.
type Stage int

const (
	// StagePublishRoute: Disseminator.PublishEnvelope entry to the
	// moment the destination set (or broadcast frame) is resolved —
	// routing-plane evaluation plus payload framing.
	StagePublishRoute Stage = iota
	// StageRouteWrite: destinations resolved to the transport write
	// handed off (Broadcast/BroadcastTo/BroadcastSplit returned).
	StageRouteWrite
	// StageWireLane: inbound frame arrival (envelope unmarshal started)
	// to the envelope enqueued on its dispatch lane.
	StageWireLane
	// StageLaneWait: lane enqueue to lane dequeue — the queueing delay
	// that grows under overload.
	StageLaneWait
	// StageDispatch: lane dequeue to handler return — matching, cloning
	// and handler execution.
	StageDispatch
	// StageE2E: publish (the envelope's publish timestamp, stamped at
	// encode) to handler return, across nodes — wall-clock, so
	// cross-node values include clock offset.
	StageE2E

	numStages
)

// stageNames are the exported histogram names, index-aligned with the
// Stage constants.
var stageNames = [numStages]string{
	"publish_to_route",
	"route_to_write",
	"wire_to_lane",
	"lane_wait",
	"dispatch",
	"e2e",
}

// String returns the stage's histogram name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every stage, in export order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Reason names the trace outcome of a dropped (or failed) delivery. Its
// String form is also the key under which the domain reports the
// engine's counter for it.
type Reason int

const (
	// ReasonExpired: a timely envelope was obsolete at dispatch.
	ReasonExpired Reason = iota
	// ReasonDecodeError: the envelope or a clone failed to decode.
	ReasonDecodeError
	// ReasonHandlerPanic: the application handler panicked (the clone
	// was consumed, but the delivery did not complete).
	ReasonHandlerPanic
	// ReasonExecutorClosed: the subscription's executor was already
	// closed when the clone was submitted (shutdown race).
	ReasonExecutorClosed
	// ReasonOverloadShed: a bounded dispatch lane at capacity shed an
	// envelope under the DropOldest overload policy (or degraded to
	// shedding after a spill-log failure).
	ReasonOverloadShed
	// ReasonSlowConsumer: a quarantined slow consumer's bounded mailbox
	// overflowed; the delivery was dropped for that subscription only.
	ReasonSlowConsumer

	numReasons
)

var reasonNames = [numReasons]string{
	"expired",
	"decode_error",
	"handler_panic",
	"executor_closed",
	"overload_shed",
	"slow_consumer",
}

// String returns the reason's counter-map key.
func (r Reason) String() string {
	if r < 0 || r >= numReasons {
		return "unknown"
	}
	return reasonNames[r]
}

// OutcomeDelivered is the trace outcome of a completed delivery; failed
// outcomes use the Reason names.
const OutcomeDelivered = "delivered"

// TraceEvent is one structured span record handed to the trace hook.
type TraceEvent struct {
	// EventID is the publication ID (shared by every delivery of one
	// publish; clones are distinct objects but trace as one event).
	EventID string
	// Class is the obvent's wire type name.
	Class string
	// Node is the observing domain member (SetNode).
	Node string
	// Stage names the pipeline segment the span covers.
	Stage string
	// Duration is the span length; zero when the outcome made the
	// segment unmeasurable (e.g. a decode error before any timing).
	Duration time.Duration
	// Outcome is OutcomeDelivered or a Reason name.
	Outcome string
}

// traceCfg is the installed hook; swapped atomically so the disabled
// path is exactly one pointer load.
type traceCfg struct {
	hook  func(TraceEvent)
	every uint64 // sample 1 of every N delivered-outcome spans
	n     atomic.Uint64
}

// numShards spreads recording across shards to keep concurrent
// recorders (lanes, publisher goroutines, executor goroutines) off each
// other's cache lines. Power of two; shard keys are masked.
const numShards = 16

// Plane is one domain's telemetry state. All methods are safe for
// concurrent use and safe on a nil receiver (a nil plane is fully
// disabled at zero cost beyond the nil check).
type Plane struct {
	node atomic.Pointer[string]
	on   atomic.Bool

	trace atomic.Pointer[traceCfg]

	shards [numShards]struct {
		h [numStages]Histogram
	}
}

// NewPlane returns an enabled plane.
func NewPlane() *Plane {
	p := &Plane{}
	p.on.Store(true)
	return p
}

// SetEnabled toggles histogram recording. The trace hook is
// governed independently by SetTraceHook.
func (p *Plane) SetEnabled(on bool) {
	if p != nil {
		p.on.Store(on)
	}
}

// Enabled reports whether timing probes should run. Call sites guard
// their time.Now/Now() reads with this so a disabled plane costs one
// atomic load per probe.
func (p *Plane) Enabled() bool {
	return p != nil && p.on.Load()
}

// SetNode names the observing domain member in trace events.
func (p *Plane) SetNode(node string) {
	if p != nil {
		p.node.Store(&node)
	}
}

// Node returns the observing member's name.
func (p *Plane) Node() string {
	if p == nil {
		return ""
	}
	if n := p.node.Load(); n != nil {
		return *n
	}
	return ""
}

// Record adds one observation to a stage histogram. shard spreads
// contention: lanes pass their lane index, concurrent publisher and
// executor paths pass any cheap per-event value (masked internally).
// ns may be a duration in nanoseconds; negative values clamp to 0.
func (p *Plane) Record(shard uint32, st Stage, ns int64) {
	if p == nil || !p.on.Load() {
		return
	}
	p.shards[shard&(numShards-1)].h[st].Record(ns)
}

// SetTraceHook installs (or, with a nil hook, removes) the event-trace
// hook. every samples delivered-outcome spans 1-in-N (values < 1 mean
// every span); failure outcomes (expired, decode errors, panics,
// closed executors) always fire, so sampling never hides a drop.
func (p *Plane) SetTraceHook(hook func(TraceEvent), every int) {
	if p == nil {
		return
	}
	if hook == nil {
		p.trace.Store(nil)
		return
	}
	if every < 1 {
		every = 1
	}
	p.trace.Store(&traceCfg{hook: hook, every: uint64(every)})
}

// TraceEnabled reports whether a trace hook is installed — one atomic
// load, the entire cost of the disabled path.
func (p *Plane) TraceEnabled() bool {
	return p != nil && p.trace.Load() != nil
}

// Trace emits one span record through the hook, applying the sample
// rate to delivered outcomes. The disabled path is one atomic load.
func (p *Plane) Trace(eventID, class string, st Stage, ns int64, outcome string) {
	p.TraceRendered(func() string { return eventID }, class, st, ns, outcome)
}

// TraceRendered is Trace for an event whose ID is text rendered on
// demand: id runs only for a span the hook takes, so a delivered span
// the sample rate skips renders nothing.
func (p *Plane) TraceRendered(id func() string, class string, st Stage, ns int64, outcome string) {
	if p == nil {
		return
	}
	cfg := p.trace.Load()
	if cfg == nil {
		return
	}
	if outcome == OutcomeDelivered && cfg.every > 1 && cfg.n.Add(1)%cfg.every != 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	cfg.hook(TraceEvent{
		EventID:  id(),
		Class:    class,
		Node:     p.Node(),
		Stage:    st.String(),
		Duration: time.Duration(ns),
		Outcome:  outcome,
	})
}

// Histograms merges every shard and returns one snapshot per stage,
// keyed by stage name.
func (p *Plane) Histograms() map[string]Snapshot {
	out := make(map[string]Snapshot, numStages)
	if p == nil {
		return out
	}
	for st := Stage(0); st < numStages; st++ {
		var merged Snapshot
		for i := range p.shards {
			merged.Merge(p.shards[i].h[st].Snapshot())
		}
		out[st.String()] = merged
	}
	return out
}

// StageSnapshot merges every shard of one stage.
func (p *Plane) StageSnapshot(st Stage) Snapshot {
	var merged Snapshot
	if p == nil || st < 0 || st >= numStages {
		return merged
	}
	for i := range p.shards {
		merged.Merge(p.shards[i].h[st].Snapshot())
	}
	return merged
}

// base anchors the process-local monotonic clock; Now is a duration
// since base, so subtraction of two Now values is skew-free.
var base = time.Now()

// Now returns the monotonic process clock in nanoseconds. It is the
// timestamp all single-node stages use; cross-node (e2e) timing uses
// wall-clock UnixNano carried in the envelope.
func Now() int64 { return int64(time.Since(base)) }
