// Package routing implements the publisher-side routing plane: the
// layer between DACE's reflexive control plane and its data plane that
// turns the stream of subscription advertisements into compiled,
// per-(class, node) compound matchers hosted at every publisher.
//
// The paper argues filters should run "at a more favourable stage
// (e.g., a remote host) to reduce network load" (§2.3.2, §3.3.3) and
// disseminates subscriptions as obvents (§4.2). A Table is the
// publisher-side materialization of that advertisement stream:
//
//	subscription ads ──► Table (per-node snapshots, in sequence order)
//	                       │ lazily, per published class
//	                       ▼
//	                 one matching.Compound whose match IDs are nodes
//	                       │ per published event
//	                       ▼
//	               Destinations: one compound evaluation total,
//	               instead of one filter.Evaluate per remote sub
//
// The compound holds one entry per node: the Or of the node's distinct
// advertised filters, so the node passes when at least one of them
// does. A node advertising any filterless subscription for the class
// gets an entry without a filter, which matches every event; its
// filters never evaluate. Identical filters from different subscribers
// are deduplicated per node by their canonical wire bytes
// (filter.MarshalCanonical). The plans live in a matching.Cache, the
// one the subscriber-side dispatch table also uses: a plan is compiled
// again after any advertisement or type registration.
//
// Advertisement ingestion is idempotent and ordered by each node's ad
// sequence: full snapshots replace a node's state when newer, deltas
// (add/remove by subscription ID) apply only on top of the exact base
// sequence they were diffed against and are otherwise dropped as stale.
// The control link hands a node's ads over in the order the node
// stamped them, which is their sequence order, so an off-base delta
// means the chain broke (a peer joined in the middle of it, or the link
// wrote a frame off), and the node's next snapshot mends it.
package routing

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/clock"
	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/matching"
	"govents/internal/obvent"
	"govents/internal/wire"
)

// Table is one publisher's view of the domain's advertised
// subscriptions, indexed for per-event destination routing. It is safe
// for concurrent use: ad application takes a mutex, routing reads
// immutable compiled plans.
type Table struct {
	reg *obvent.Registry

	mu    sync.Mutex
	nodes map[string]*nodeState
	// epochs records each node's advertised incarnation (its boot
	// stamp). A restarted node restarts its ad sequence from 1; without
	// the epoch its fresh snapshots would be rejected as stale against
	// the previous incarnation's high sequence — forever, since stale
	// ads still refresh lastSeen. See NoteEpoch.
	epochs map[string]int64
	gen    atomic.Uint64 // bumped on every applied mutation

	// adTTL is the silent-node expiry: a node whose last advertisement
	// (of any kind — stale ads also prove liveness) is older than adTTL
	// is dropped by ExpireSilent even without a membership change. Zero
	// disables expiry.
	adTTL time.Duration
	// clock measures the silence (the node's clock, set with the TTL).
	clock clock.Clock

	// plans caches one compound per class, invalidated by Gen.
	plans *matching.Cache[struct{}]

	adsApplied   atomic.Uint64
	adsStale     atomic.Uint64
	adsRefreshed atomic.Uint64
	adsRejected  atomic.Uint64
	nodesExpired atomic.Uint64
	// filtersParsed counts filter.Unmarshal calls (Stats.FiltersParsed).
	filtersParsed atomic.Uint64

	// classStats maps class name -> *classCounters. Only registered
	// classes get entries; events of unknown wire names fold into
	// unknownStats so arbitrary off-the-wire strings cannot grow the
	// map (mirroring the plan cache's rule).
	classStats   sync.Map
	unknownStats classCounters
}

// nodeState is the applied advertisement state of one node.
type nodeState struct {
	seq  uint64
	subs map[string]subRecord // by subscription ID; nil until a snapshot applied
	// lastSeen is when the node last advertised anything (liveness for
	// the silent-TTL expiry).
	lastSeen time.Time
}

// subRecord is one advertised subscription with its filter compiled.
type subRecord struct {
	info core.SubscriptionInfo
	// expr is nil for filterless subscriptions — and for filters that
	// fail to parse, which fail open: the subscriber's local evaluation
	// decides, the publisher just ships.
	expr *filter.Expr
}

// ApplyResult reports how an advertisement was ingested.
type ApplyResult struct {
	// Applied is true when the ad changed the table.
	Applied bool
	// NewNode is true the first time any advertisement (applied or
	// stale) is witnessed from this node — the trigger for anti-entropy
	// re-advertisement.
	NewNode bool
}

// classCounters is the per-class atomic form of Stats' routing half.
type classCounters struct {
	plansCompiled atomic.Uint64
	eventsRouted  atomic.Uint64
	compoundEvals atomic.Uint64
	nodesPruned   atomic.Uint64
	fallbackEvals atomic.Uint64
	prunedSends   atomic.Uint64
	skipFrames    atomic.Uint64
}

// Stats are a Table's cumulative routing-plane counters.
type Stats struct {
	// AdsApplied counts advertisements (snapshots and deltas) that
	// changed the table.
	AdsApplied uint64
	// AdsStale counts advertisements discarded as overtaken by a newer
	// sequence, deltas whose base is not the node's applied sequence,
	// and ads of a dead incarnation (NoteEpoch).
	AdsStale uint64
	// AdsRefreshed counts advertisements that only refreshed a node's
	// liveness and sequence without changing its subscription set
	// (heartbeats) — those do not invalidate compiled plans.
	AdsRefreshed uint64
	// AdsRejected counts advertisement payloads refused before
	// ingestion — oversized or undecodable control messages, and ads
	// naming a node other than their sender (counted by the
	// control-plane receiver via NoteAdRejected). A nonzero value means
	// some peer is buggy, hostile, or speaking a different control
	// schema.
	AdsRejected uint64
	// NodesExpired counts nodes dropped by the silent-TTL expiry
	// (ExpireSilent), as opposed to membership removal.
	NodesExpired uint64
	// FiltersParsed counts advertised filters parsed: one per (node,
	// subscription, advertised bytes), shared by equal bytes within one
	// advertisement. A snapshot repeating what the table holds parses
	// none, so this grows with the changes advertised, not with the sets.
	FiltersParsed uint64
	// PlansCompiled counts per-class plan compilations.
	PlansCompiled uint64
	// EventsRouted counts routing decisions (Destinations/NodesFor calls).
	EventsRouted uint64
	// CompoundEvals counts compound matcher evaluations — exactly one
	// per Destinations call that had conditional nodes and a decodable
	// event, regardless of subscription count.
	CompoundEvals uint64
	// NodesPruned counts candidate nodes not sent to because none of
	// their filters passed (the bandwidth the routing plane saves).
	NodesPruned uint64
	// FallbackEvals counts fail-open routings where the event could not
	// be decoded and every conditional node was included.
	FallbackEvals uint64
	// PrunedSends counts per-destination data frames an interest-aware
	// multicast class did not send because the destination had no
	// matching subscriber (reported by the dissemination layer via
	// NotePrunedSends) — the wire traffic ordered-class pruning saves.
	PrunedSends uint64
	// SkipFrames counts the per-destination clock markers a causal class
	// shipped to nodes it had pruned (reported via NoteSkipFrames); FIFO
	// and total order send pruned nodes nothing and leave it at zero.
	// Markers are amortized over flush ticks and carry no payload, so
	// this stays far below PrunedSends under sparse interest.
	SkipFrames uint64
	// AccessorPrograms counts the accessor programs compiled by the live
	// class plans' compound matchers (package accessor: per-event
	// reflection compiled to index-based steps, shared with the
	// subscriber-side dispatch matchers). Plans are recompiled on ad or
	// registry changes, restarting the count with the plan.
	AccessorPrograms uint64
	// AccessorFallbacks counts per-event path resolutions in the live
	// plans that fell back to name-based reflection.
	AccessorFallbacks uint64
}

// NewTable returns an empty routing table over a type registry (shared
// with the node's engine, so conformance agrees with dispatch).
func NewTable(reg *obvent.Registry) *Table {
	t := &Table{
		reg:    reg,
		nodes:  make(map[string]*nodeState),
		epochs: make(map[string]int64),
		clock:  clock.Real{},
	}
	t.plans = matching.NewCache(reg, t.Gen, t.compile)
	return t
}

// SetAdTTL configures the silent-node TTL consulted by ExpireSilent,
// measured on clk. Zero (the default) disables expiry. The TTL must be
// paired with re-advertisement heartbeats domain-wide (dace sends them
// when its AdTTL is set): nodes only advertise on subscription changes,
// so without heartbeats a healthy but quiet node would be expired.
func (t *Table) SetAdTTL(d time.Duration, clk clock.Clock) {
	t.mu.Lock()
	t.adTTL, t.clock = d, clk
	t.mu.Unlock()
}

// --- advertisement ingestion ---

// parse compiles the advertised filters of recs[i] for i in fresh,
// outside any lock. Equal filter bytes within one advertisement share
// one parsed expression (expressions are immutable).
func (t *Table) parse(recs []subRecord, fresh []int) {
	var shared map[string]*filter.Expr
	if len(fresh) > 1 {
		shared = make(map[string]*filter.Expr)
	}
	for _, i := range fresh {
		r := &recs[i]
		if len(r.info.Filter) == 0 {
			continue
		}
		expr, seen := shared[string(r.info.Filter)]
		if !seen {
			t.filtersParsed.Add(1)
			expr, _ = filter.Unmarshal(r.info.Filter) // nil fails open, see subRecord
			if shared != nil {
				shared[string(r.info.Filter)] = expr
			}
		}
		r.expr = expr
	}
}

// reuse pairs an advertised set with the node's applied records (cur,
// read under t.mu; nil when there is nothing to reuse): a description
// the table already holds byte for byte keeps its record, parsed filter
// included, and the indices of the rest are returned for parse. A filter
// is therefore parsed once per (node, subscription ID, advertised
// bytes), not once per advertisement that repeats it.
func reuse(cur map[string]subRecord, subs []core.SubscriptionInfo) (recs []subRecord, fresh []int) {
	recs = make([]subRecord, len(subs))
	for i, info := range subs {
		if prev, ok := cur[info.ID]; ok && prev.info.Equal(info) {
			recs[i] = prev
			continue
		}
		recs[i].info = info
		fresh = append(fresh, i)
	}
	return recs, fresh
}

// ApplySnapshot ingests a full snapshot advertisement: node's complete
// subscription set at sequence seq. Snapshots are idempotent and
// newest-wins. Only what the snapshot changes is parsed (reuse), and a
// snapshot identical to the applied state (a liveness heartbeat)
// advances the sequence and refreshes lastSeen but does not invalidate
// compiled plans.
func (t *Table) ApplySnapshot(node string, seq uint64, subs []core.SubscriptionInfo) ApplyResult {
	t.mu.Lock()
	st, res, news := t.admitLocked(node, seq)
	if !news {
		t.mu.Unlock()
		return res
	}
	recs, fresh := reuse(st.subs, subs)
	if st.subs != nil && len(fresh) == 0 && len(st.subs) == len(subs) {
		// Heartbeat snapshot: nothing changed (nil subs — no snapshot
		// applied yet — never equals, so a first snapshot always counts
		// as a change). Advance the sequence and leave compiled plans
		// alone.
		st.seq = seq
		t.adsRefreshed.Add(1)
		t.mu.Unlock()
		return res
	}
	t.mu.Unlock()

	t.parse(recs, fresh)

	t.mu.Lock()
	defer t.mu.Unlock()
	// Reacquire the state: it may have been expired or advanced while
	// the filters were compiling (NewNode was already captured above).
	// The records kept above stay good whatever happened to it: each is
	// the parse of the bytes beside it.
	if st, _, news = t.admitLocked(node, seq); !news {
		return res
	}
	st.subs = make(map[string]subRecord, len(recs))
	for _, r := range recs {
		st.subs[r.info.ID] = r
	}
	st.seq = seq
	t.adsApplied.Add(1)
	t.gen.Add(1)
	res.Applied = true
	return res
}

// NoteEpoch records the advertised incarnation of a node before its ad
// is applied, and reports whether the ad should be processed at all. A
// higher epoch than recorded is a rebirth: the previous incarnation's
// state (and its high ad sequence) is dropped so the newborn's
// sequence-1 snapshot applies as a NewNode — which also triggers the
// usual anti-entropy exchange. A lower epoch is a late retransmission
// from a dead incarnation and must be ignored entirely. Epoch zero
// (a peer predating epochs) is always accepted.
func (t *Table) NoteEpoch(node string, epoch int64) bool {
	if epoch == 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.epochs[node]
	switch {
	case epoch < cur:
		t.adsStale.Add(1)
		return false
	case epoch > cur:
		t.epochs[node] = epoch
		if _, ok := t.nodes[node]; ok && cur != 0 {
			// A genuine rebirth, not the first sighting: forget the
			// dead incarnation.
			delete(t.nodes, node)
			t.gen.Add(1)
		}
	}
	return true
}

// ApplyDelta ingests a delta advertisement: adds and removals relative
// to the node's state at baseSeq. A delta whose base is not the
// currently applied sequence is dropped, unparsed, and counted stale:
// the node's ads arrive in sequence order, so its base will not come
// later, and the node's next snapshot restores its state. An empty
// delta (a liveness heartbeat) only advances the sequence and does not
// invalidate compiled plans.
func (t *Table) ApplyDelta(node string, seq, baseSeq uint64, add []core.SubscriptionInfo, remove []string) ApplyResult {
	t.mu.Lock()
	_, res, news := t.admitDeltaLocked(node, seq, baseSeq)
	t.mu.Unlock()
	if !news {
		return res
	}
	recs, fresh := reuse(nil, add) // a delta carries only what changed
	t.parse(recs, fresh)

	t.mu.Lock()
	defer t.mu.Unlock()
	st, _, news := t.admitDeltaLocked(node, seq, baseSeq)
	if !news {
		return res
	}
	changed := false
	for _, id := range remove {
		if _, ok := st.subs[id]; ok {
			delete(st.subs, id)
			changed = true
		}
	}
	for _, r := range recs {
		if prev, ok := st.subs[r.info.ID]; !ok || !prev.info.Equal(r.info) {
			st.subs[r.info.ID] = r
			changed = true
		}
	}
	st.seq = seq
	if changed {
		t.adsApplied.Add(1)
		t.gen.Add(1)
	} else {
		t.adsRefreshed.Add(1)
	}
	res.Applied = changed
	return res
}

// admitLocked notes that node advertised (creating its state if first
// witnessed, refreshing lastSeen) and reports whether sequence seq is
// still news to the table; an advertisement overtaken by a newer one is
// counted stale.
func (t *Table) admitLocked(node string, seq uint64) (*nodeState, ApplyResult, bool) {
	var res ApplyResult
	st, ok := t.nodes[node]
	if !ok {
		st = &nodeState{}
		t.nodes[node] = st
		res.NewNode = true
	}
	st.lastSeen = t.clock.Now()
	if st.subs != nil && seq <= st.seq {
		t.adsStale.Add(1)
		return st, res, false
	}
	return st, res, true
}

// admitDeltaLocked is admitLocked for a delta on baseSeq, which is news
// only on top of the node's applied sequence; one off its base is
// counted stale.
func (t *Table) admitDeltaLocked(node string, seq, baseSeq uint64) (*nodeState, ApplyResult, bool) {
	st, res, news := t.admitLocked(node, seq)
	if news && (st.subs == nil || st.seq != baseSeq) {
		t.adsStale.Add(1)
		return st, res, false
	}
	return st, res, news
}

// RetainNodes forgets every node not in members — the membership-change
// hook: a departed node must stop receiving events and stop being owed
// certified deliveries, and its state must not pin table memory.
func (t *Table) RetainNodes(members []string) {
	keep := make(map[string]bool, len(members))
	for _, m := range members {
		keep[m] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := false
	for node := range t.nodes {
		if !keep[node] {
			delete(t.nodes, node)
			delete(t.epochs, node)
			changed = true
		}
	}
	if changed {
		t.gen.Add(1)
	}
}

// ExpireSilent drops every node (excluding the listed addresses,
// typically the caller's own) whose last advertisement is older than
// the configured ad TTL — the ad-stream GC: a node silent past the TTL
// without a membership change must stop being owed events, certified
// deliveries, and table memory. It returns the dropped node addresses.
// No-op when no TTL is configured. A wrongly expired node (e.g. one
// whose heartbeats were delayed) re-enters as a new node on its next
// full-snapshot advertisement — forced at least every snapshotEvery
// deltas by the sender — which also triggers anti-entropy; its delta
// heartbeats in between have no base here and are dropped as stale, so
// the mis-expiry window is bounded by a few heartbeat periods.
func (t *Table) ExpireSilent(exclude ...string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.adTTL <= 0 {
		return nil
	}
	cutoff := t.clock.Now().Add(-t.adTTL)
	var dropped []string
	for node, st := range t.nodes {
		skip := false
		for _, ex := range exclude {
			if node == ex {
				skip = true
				break
			}
		}
		if skip || !st.lastSeen.Before(cutoff) {
			continue
		}
		delete(t.nodes, node)
		dropped = append(dropped, node)
	}
	if len(dropped) > 0 {
		t.nodesExpired.Add(uint64(len(dropped)))
		t.gen.Add(1)
	}
	return dropped
}

// Unheard returns the members, but for self, that have no
// advertisement on record: never heard from, or forgotten since
// (RetainNodes, ExpireSilent). A snapshot of no subscriptions is a
// record.
func (t *Table) Unheard(members []string, self string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for _, m := range members {
		if st := t.nodes[m]; m != self && (st == nil || st.subs == nil) {
			out = append(out, m)
		}
	}
	return out
}

// SubscriptionCount reports the number of applied subscriptions,
// excluding those of node exclude (the caller's own, for a
// "remote subscriptions known" reading).
func (t *Table) SubscriptionCount(exclude string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for node, st := range t.nodes {
		if node == exclude {
			continue
		}
		total += len(st.subs)
	}
	return total
}

// Gen returns a number that grows, from 1, whenever an answer of the
// table may have changed: with every applied mutation, and with every
// type registration, which can extend conformance.
func (t *Table) Gen() uint64 { return 1 + t.gen.Load() + t.reg.Gen() }

// ForEachConforming calls fn for every applied subscription whose
// target type the class conforms to (the certified-delivery subscriber
// enumeration). fn must not call back into the table.
func (t *Table) ForEachConforming(class string, fn func(node string, info core.SubscriptionInfo)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for node, st := range t.nodes {
		for _, r := range st.subs {
			if t.reg.ConformsTo(class, r.info.TypeName) {
				fn(node, r.info)
			}
		}
	}
}

// --- plan compilation ---

// compile builds the class plan from the current node states: group
// each node's conforming subscriptions into one entry, the Or of its
// distinct filters, or no filter when any of them has none.
func (t *Table) compile(class string) (*matching.Compound, struct{}) {
	type nodeAgg struct {
		always bool
		exprs  []*filter.Expr
		seen   map[string]bool // canonical filter bytes -> present
	}

	t.mu.Lock()
	aggs := make(map[string]*nodeAgg)
	for node, st := range t.nodes {
		for _, r := range st.subs {
			if !t.reg.ConformsTo(class, r.info.TypeName) {
				continue
			}
			a := aggs[node]
			if a == nil {
				a = &nodeAgg{}
				aggs[node] = a
			}
			if a.always {
				continue
			}
			if r.expr == nil {
				// Filterless (or unparsable, failing open): the node
				// always matches; its other filters need not evaluate.
				a.always = true
				a.exprs = nil
				continue
			}
			key := string(r.info.Filter)
			if a.seen[key] {
				continue // identical filter from another subscriber
			}
			if a.seen == nil {
				a.seen = make(map[string]bool)
			}
			a.seen[key] = true
			a.exprs = append(a.exprs, r.expr)
		}
	}
	t.mu.Unlock()

	filters := make(map[string]*filter.Expr, len(aggs))
	for node, a := range aggs {
		switch {
		case a.always:
			filters[node] = nil
		case len(a.exprs) == 1:
			filters[node] = a.exprs[0]
		default:
			filters[node] = filter.Or(a.exprs...)
		}
	}
	c := matching.New()
	// Validated on the subscriber at Subscribe and re-validated by
	// filter.Unmarshal on ingestion; AddBatch cannot fail here.
	_ = c.AddBatch(filters)
	t.counters(class).plansCompiled.Add(1)
	return c, struct{}{}
}

// --- routing ---

// Destinations appends the sorted node set owed an event of the given
// class: every node whose entry passes — decided by a single compound
// evaluation. decode supplies the decoded event on demand; it is invoked
// at most once, and only when some candidate node actually has filters.
// A nil decode result fails open to every candidate node (the
// subscriber's local evaluation decides).
func (t *Table) Destinations(class string, decode func() any, dst []string) []string {
	c, cc := t.route(class)
	if c.Unfiltered() {
		return append(dst, c.IDs()...)
	}
	var ev any
	if decode != nil {
		ev = decode()
	}
	if ev == nil {
		cc.fallbackEvals.Add(1)
		return append(dst, c.IDs()...)
	}
	// Fail-open matching: a node whose Or-of-filters errors (some
	// advertised filter cannot evaluate against this event) is included,
	// exactly as the per-entry baseline includes a node whose filter
	// evaluation errors — the subscriber's local pass decides. The Or
	// yields true or error whenever any term is true or errored, and
	// false only when every term is false, so node-level fail-open
	// composes correctly from per-subscription fail-open.
	n := len(dst)
	dst = c.MatchAppendFailOpen(ev, dst)
	cc.noteEval(len(c.IDs()) - (len(dst) - n))
	return dst
}

// DestinationsWire is Destinations for an event that full returns as
// the value the publisher holds or as a *T decoded in place
// (matching.Compound.MatchWireAppend). A full() error fails open to
// every candidate node, mirroring the nil-decode path of Destinations.
// payload is not read. It stays only for the benchmark harness's
// probes, and ROADMAP item 20(a) retires it.
func (t *Table) DestinationsWire(class string, wp *wire.Prog, payload []byte, full func() (any, error), dst []string) []string {
	c, cc := t.route(class)
	if c.Unfiltered() {
		return append(dst, c.IDs()...)
	}
	n := len(dst)
	dst, err := c.MatchWireAppendFailOpen(wp, payload, full, dst)
	if err != nil {
		cc.fallbackEvals.Add(1)
		return append(dst[:n], c.IDs()...)
	}
	cc.noteEval(len(c.IDs()) - (len(dst) - n))
	return dst
}

// NodesFor appends the sorted set of all candidate nodes for a class —
// every node hosting at least one conforming subscription, filters
// ignored. This is the subscriber-side-placement routing decision (and
// the membership question "who subscribes to this class at all?").
func (t *Table) NodesFor(class string, dst []string) []string {
	c, _ := t.route(class)
	return append(dst, c.IDs()...)
}

// route counts one routing decision for a class and returns its plan
// and counters.
func (t *Table) route(class string) (*matching.Compound, *classCounters) {
	c, _ := t.plans.Get(class)
	cc := t.counters(class)
	cc.eventsRouted.Add(1)
	return c, cc
}

// noteEval counts one compound evaluation that pruned n nodes.
func (cc *classCounters) noteEval(pruned int) {
	cc.compoundEvals.Add(1)
	if pruned > 0 {
		cc.nodesPruned.Add(uint64(pruned))
	}
}

// DestinationsNaive computes the same destination set by evaluating
// every subscription's filter independently, skipping a node's
// remaining entries once it matched — the pre-routing-plane publisher
// loop. It is the transparency oracle for tests and the baseline
// BenchmarkPublisherRouting measures the compound plan against.
func (t *Table) DestinationsNaive(class string, event any) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	dests := make(map[string]bool)
	for node, st := range t.nodes {
		for _, r := range st.subs {
			if dests[node] {
				break
			}
			if !t.reg.ConformsTo(class, r.info.TypeName) {
				continue
			}
			if r.expr != nil {
				ok, err := filter.Evaluate(r.expr, event)
				if err == nil && !ok {
					continue
				}
				// Evaluation errors fail open.
			}
			dests[node] = true
		}
	}
	out := make([]string, 0, len(dests))
	for d := range dests {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// --- stats ---

// counters returns (creating on first use) a class's counters. Classes
// the registry does not know share one sink: their names come off the
// wire, and one map entry per arbitrary peer-supplied string would grow
// the table without bound.
func (t *Table) counters(class string) *classCounters {
	if v, ok := t.classStats.Load(class); ok {
		return v.(*classCounters)
	}
	if _, known := t.reg.TypeByName(class); !known {
		return &t.unknownStats
	}
	v, _ := t.classStats.LoadOrStore(class, &classCounters{})
	return v.(*classCounters)
}

func (c *classCounters) snapshot() Stats {
	return Stats{
		PlansCompiled: c.plansCompiled.Load(),
		EventsRouted:  c.eventsRouted.Load(),
		CompoundEvals: c.compoundEvals.Load(),
		NodesPruned:   c.nodesPruned.Load(),
		FallbackEvals: c.fallbackEvals.Load(),
		PrunedSends:   c.prunedSends.Load(),
		SkipFrames:    c.skipFrames.Load(),
	}
}

// add folds another snapshot into s.
func (s *Stats) add(o Stats) {
	s.PlansCompiled += o.PlansCompiled
	s.EventsRouted += o.EventsRouted
	s.CompoundEvals += o.CompoundEvals
	s.NodesPruned += o.NodesPruned
	s.FallbackEvals += o.FallbackEvals
	s.PrunedSends += o.PrunedSends
	s.SkipFrames += o.SkipFrames
}

// Stats returns the table's cumulative counters, folded across classes.
func (t *Table) Stats() Stats {
	s := Stats{
		AdsApplied:    t.adsApplied.Load(),
		AdsStale:      t.adsStale.Load(),
		AdsRefreshed:  t.adsRefreshed.Load(),
		AdsRejected:   t.adsRejected.Load(),
		NodesExpired:  t.nodesExpired.Load(),
		FiltersParsed: t.filtersParsed.Load(),
	}
	s.add(t.unknownStats.snapshot())
	t.classStats.Range(func(_, v any) bool {
		s.add(v.(*classCounters).snapshot())
		return true
	})
	s.foldAccessor(t.plans.AccessorStats(""))
	return s
}

// foldAccessor adds the plans' accessor counters.
func (s *Stats) foldAccessor(ms matching.Stats) {
	s.AccessorPrograms += ms.AccessorPrograms
	s.AccessorFallbacks += ms.AccessorFallbacks
}

// NoteAdRejected records an advertisement payload the control-plane
// receiver refused before ingestion (oversized or malformed framing, or
// an ad naming a node other than its sender).
// The table never sees such payloads; the receiver reports them here so
// the rejection shows up next to the other advertisement counters.
func (t *Table) NoteAdRejected() { t.adsRejected.Add(1) }

// NotePrunedSends records n per-destination data frames an
// interest-aware multicast class avoided sending for the given class.
// The table only routes; the dissemination layer reports the saving
// here so it shows up next to the class's routing counters.
func (t *Table) NotePrunedSends(class string, n uint64) {
	if n > 0 {
		t.counters(class).prunedSends.Add(n)
	}
}

// NoteSkipFrames records n per-destination causal clock markers shipped
// to pruned nodes of the given class.
func (t *Table) NoteSkipFrames(class string, n uint64) {
	if n > 0 {
		t.counters(class).skipFrames.Add(n)
	}
}

// StatsByClass returns the per-class routing counters for every class
// that has routed at least one event or compiled a plan.
func (t *Table) StatsByClass() map[string]Stats {
	out := make(map[string]Stats)
	t.classStats.Range(func(k, v any) bool {
		class := k.(string)
		s := v.(*classCounters).snapshot()
		s.foldAccessor(t.plans.AccessorStats(class))
		out[class] = s
		return true
	})
	return out
}
