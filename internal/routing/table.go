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
//	subscription ads ──► Table (per-node snapshots, seq-reconciled)
//	                       │ lazily, per published class
//	                       ▼
//	                 classPlan: always-match nodes + one
//	                 matching.Compound whose match IDs are nodes
//	                       │ per published event
//	                       ▼
//	               Destinations: one compound evaluation total,
//	               instead of one filter.Evaluate per remote sub
//
// A node passes the class's compound when at least one of its
// advertised filters passes; a node advertising any filterless
// subscription for the class short-circuits to always-match and its
// filters never evaluate. Identical filters from different subscribers
// are deduplicated per node by their canonical wire bytes
// (filter.MarshalCanonical). Plans carry the table and registry
// generations they were compiled under and are recompiled lazily after
// any advertisement or type registration, mirroring the subscriber-side
// dispatchTable.
//
// Advertisement ingestion is idempotent and sequence-reconciled: full
// snapshots replace a node's state when newer, deltas (add/remove by
// subscription ID) apply only on top of the exact base sequence they
// were diffed against and are otherwise parked until the chain closes —
// a node's ads may race each other to the control channel, and a peer
// may join in the middle of a chain.
package routing

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// (of any kind — stale and deferred ads also prove liveness) is
	// older than adTTL is dropped by ExpireSilent even without a
	// membership change. Zero disables expiry.
	adTTL time.Duration
	// now is the clock; replaceable in tests.
	now func() time.Time

	// plans caches class name -> *classPlan, invalidated by generation.
	plans sync.Map

	// match pools the compound-output scratch of Destinations so
	// steady-state routing does not allocate.
	match sync.Pool

	adsApplied   atomic.Uint64
	adsStale     atomic.Uint64
	adsDeferred  atomic.Uint64
	adsRefreshed atomic.Uint64
	adsRejected  atomic.Uint64
	nodesExpired atomic.Uint64
	// filtersParsed counts filter.Unmarshal calls (Stats.FiltersParsed).
	filtersParsed atomic.Uint64

	// classStats maps class name -> *classCounters. Only registered
	// classes get entries; events of unknown wire names fold into
	// unknownStats so arbitrary off-the-wire strings cannot grow the
	// map (mirroring plan()'s caching rule).
	classStats   sync.Map
	unknownStats classCounters
}

// nodeState is the applied advertisement state of one node.
type nodeState struct {
	seq  uint64
	subs map[string]subRecord // by subscription ID; nil until a snapshot applied
	// pending parks deltas whose base sequence has not been applied
	// yet, keyed by that base.
	pending map[uint64]*delta
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

// maxPendingDeltas bounds how many out-of-order deltas are parked per
// node. Senders force a full snapshot at least every 8 deltas, so
// legitimate chains never need more; anything beyond is a buggy or
// hostile peer.
const maxPendingDeltas = 16

// delta is a parked delta advertisement.
type delta struct {
	seq    uint64
	add    []subRecord
	remove []string
}

// ApplyResult reports how an advertisement was ingested.
type ApplyResult struct {
	// Applied is true when the table changed (the ad, and possibly a
	// chain of parked deltas behind it, took effect).
	Applied bool
	// NewNode is true the first time any advertisement (applied,
	// deferred or stale) is witnessed from this node — the trigger for
	// anti-entropy re-advertisement.
	NewNode bool
	// Deferred is true when a delta was parked awaiting its base.
	Deferred bool
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
	// AdsApplied counts advertisements (snapshots and deltas, including
	// drained parked deltas) that changed the table.
	AdsApplied uint64
	// AdsStale counts advertisements discarded as overtaken by a newer
	// sequence.
	AdsStale uint64
	// AdsDeferred counts deltas parked because their base had not been
	// applied yet.
	AdsDeferred uint64
	// AdsRefreshed counts advertisements that only refreshed a node's
	// liveness and sequence without changing its subscription set
	// (heartbeats) — those do not invalidate compiled plans.
	AdsRefreshed uint64
	// AdsRejected counts advertisement payloads refused before
	// ingestion — oversized or undecodable control messages (counted by
	// the control-plane receiver via NoteAdRejected). A nonzero value
	// means some peer is buggy, hostile, or speaking a different control
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
	// NotePrunedSends) — the wire traffic ordered/gossip pruning saves.
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
	// PartialDecodes counts routing decisions evaluated straight from
	// the event's compact wire payload, without materializing the event.
	PartialDecodes uint64
	// WireMaterializations counts wire-encoded events the routing plans
	// had to decode fully (a referenced path goes through an accessor
	// method).
	WireMaterializations uint64
}

// classPlan is the immutable compiled routing state for one class.
type classPlan struct {
	gen    uint64 // table generation the plan was compiled under
	regGen uint64 // registry generation the plan was compiled under

	// always are nodes owed every event of the class (some filterless
	// conforming subscription), sorted.
	always []string
	// condNodes are nodes whose inclusion depends on their filters,
	// sorted. Disjoint from always.
	condNodes []string
	// compound factors the conditional nodes' filters; match IDs are
	// node addresses. Nil when condNodes is empty.
	compound *matching.Compound
}

// matchScratch is the pooled compound-output buffer of Destinations.
type matchScratch struct {
	ids []string
}

// NewTable returns an empty routing table over a type registry (shared
// with the node's engine, so conformance agrees with dispatch).
func NewTable(reg *obvent.Registry) *Table {
	t := &Table{
		reg:    reg,
		nodes:  make(map[string]*nodeState),
		epochs: make(map[string]int64),
		now:    time.Now,
	}
	t.match.New = func() any { return &matchScratch{} }
	return t
}

// SetAdTTL configures the silent-node TTL consulted by ExpireSilent.
// Zero (the default) disables expiry. The TTL must be paired with
// re-advertisement heartbeats domain-wide (dace sends them when its
// AdTTL is set): nodes only advertise on subscription changes, so
// without heartbeats a healthy but quiet node would be expired.
func (t *Table) SetAdTTL(d time.Duration) {
	t.mu.Lock()
	t.adTTL = d
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
// newest-wins; a snapshot additionally drains any parked deltas that
// chain directly onto it. Only what the snapshot changes is parsed
// (reuse), and a snapshot identical to the applied state (a
// liveness heartbeat) advances the sequence and refreshes lastSeen but
// does not invalidate compiled plans.
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
		// as a change). Advance the sequence, drain any parked deltas
		// that now chain, and leave compiled plans alone unless a
		// drained delta changed something.
		st.seq = seq
		t.adsRefreshed.Add(1)
		changed := t.drainLocked(st)
		if changed {
			t.gen.Add(1)
		}
		res.Applied = changed
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
	t.drainLocked(st)
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
// currently applied sequence is parked and applied when the chain
// closes; one already overtaken is discarded, unparsed.
func (t *Table) ApplyDelta(node string, seq, baseSeq uint64, add []core.SubscriptionInfo, remove []string) ApplyResult {
	t.mu.Lock()
	_, res, news := t.admitLocked(node, seq)
	t.mu.Unlock()
	if !news {
		return res
	}
	recs, fresh := reuse(nil, add) // a delta carries only what changed
	t.parse(recs, fresh)

	t.mu.Lock()
	defer t.mu.Unlock()
	st, _, news := t.admitLocked(node, seq)
	if !news {
		return res
	}
	d := &delta{seq: seq, add: recs, remove: remove}
	if st.subs == nil || st.seq != baseSeq {
		// Base not applied yet: park until the chain closes. The park
		// is bounded — a peer forces a snapshot every snapshotEvery
		// deltas, so chains longer than that cannot be required, and an
		// unbounded park would let a buggy or malicious peer grow the
		// table without limit. When full, the farthest-future delta is
		// dropped; the sender's next snapshot resynchronizes.
		if st.pending == nil {
			st.pending = make(map[uint64]*delta)
		}
		if prev, ok := st.pending[baseSeq]; !ok || d.seq > prev.seq {
			st.pending[baseSeq] = d
		}
		if len(st.pending) > maxPendingDeltas {
			var maxBase uint64
			for base := range st.pending {
				if base > maxBase {
					maxBase = base
				}
			}
			delete(st.pending, maxBase)
		}
		t.adsDeferred.Add(1)
		res.Deferred = true
		return res
	}
	changed := t.applyDeltaLocked(st, d)
	changed = t.drainLocked(st) || changed
	if changed {
		t.gen.Add(1)
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
	st.lastSeen = t.now()
	if st.subs != nil && seq <= st.seq {
		t.adsStale.Add(1)
		return st, res, false
	}
	return st, res, true
}

// applyDeltaLocked applies one delta and reports whether it actually
// changed the subscription set (an empty delta — a liveness heartbeat —
// only advances the sequence and must not invalidate compiled plans).
func (t *Table) applyDeltaLocked(st *nodeState, d *delta) bool {
	changed := false
	for _, id := range d.remove {
		if _, ok := st.subs[id]; ok {
			delete(st.subs, id)
			changed = true
		}
	}
	for _, r := range d.add {
		if prev, ok := st.subs[r.info.ID]; !ok || !prev.info.Equal(r.info) {
			st.subs[r.info.ID] = r
			changed = true
		}
	}
	st.seq = d.seq
	if changed {
		t.adsApplied.Add(1)
	} else {
		t.adsRefreshed.Add(1)
	}
	return changed
}

// drainLocked applies every parked delta that now chains onto the
// applied sequence, drops those overtaken by it, and reports whether
// any drained delta changed the subscription set.
func (t *Table) drainLocked(st *nodeState) bool {
	for base := range st.pending {
		if base < st.seq {
			delete(st.pending, base)
		}
	}
	changed := false
	for {
		d, ok := st.pending[st.seq]
		if !ok {
			return changed
		}
		delete(st.pending, st.seq)
		changed = t.applyDeltaLocked(st, d) || changed
	}
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
// heartbeats in between are parked, so the mis-expiry window is
// bounded by a few heartbeat periods.
func (t *Table) ExpireSilent(exclude ...string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.adTTL <= 0 {
		return nil
	}
	cutoff := t.now().Add(-t.adTTL)
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

// plan returns the compiled routing state for a class, compiling and
// caching it on first use and recompiling when the table or the type
// registry changed since. Classes the registry does not know are never
// cached (class names come off the wire; caching arbitrary strings
// would grow the map without bound).
func (t *Table) plan(class string) *classPlan {
	gen, regGen := t.gen.Load(), t.reg.Gen()
	if v, ok := t.plans.Load(class); ok {
		p := v.(*classPlan)
		if p.gen == gen && p.regGen == regGen {
			return p
		}
	}
	p := t.compile(class)
	if _, known := t.reg.TypeByName(class); known {
		t.plans.Store(class, p)
	}
	return p
}

// compile builds the class plan from the current node states: group
// each node's conforming subscriptions, short-circuit filterless nodes,
// and factor the rest into one compound whose IDs are node addresses.
func (t *Table) compile(class string) *classPlan {
	type nodeAgg struct {
		always bool
		exprs  []*filter.Expr
		seen   map[string]bool // canonical filter bytes -> present
	}

	t.mu.Lock()
	// Generations are captured under the lock, before reading state: a
	// mutation racing with compilation at worst stamps the plan with an
	// older generation, which re-triggers compilation on the next event.
	gen := t.gen.Load()
	regGen := t.reg.Gen()
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

	p := &classPlan{gen: gen, regGen: regGen}
	var filters map[string]*filter.Expr
	for node, a := range aggs {
		if a.always {
			p.always = append(p.always, node)
			continue
		}
		p.condNodes = append(p.condNodes, node)
		if filters == nil {
			filters = make(map[string]*filter.Expr)
		}
		if len(a.exprs) == 1 {
			filters[node] = a.exprs[0]
		} else {
			filters[node] = filter.Or(a.exprs...)
		}
	}
	sort.Strings(p.always)
	sort.Strings(p.condNodes)
	if filters != nil {
		p.compound = matching.New()
		// Validated on the subscriber at Subscribe and re-validated by
		// filter.Unmarshal on ingestion; AddBatch cannot fail here.
		_ = p.compound.AddBatch(filters)
	}
	t.counters(class).plansCompiled.Add(1)
	return p
}

// --- routing ---

// Destinations appends the sorted node set owed an event of the given
// class: every always-match node plus every conditional node with at
// least one passing filter — decided by a single compound evaluation.
// decode supplies the decoded event on demand; it is invoked at most
// once, and only when some candidate node actually has filters. A nil
// decode result fails open to all conditional nodes (the subscriber's
// local evaluation decides).
func (t *Table) Destinations(class string, decode func() any, dst []string) []string {
	p := t.plan(class)
	cc := t.counters(class)
	cc.eventsRouted.Add(1)
	if p.compound == nil {
		return append(dst, p.always...)
	}
	var ev any
	if decode != nil {
		ev = decode()
	}
	if ev == nil {
		cc.fallbackEvals.Add(1)
		return mergeSorted(dst, p.always, p.condNodes)
	}
	cc.compoundEvals.Add(1)
	sc := t.match.Get().(*matchScratch)
	// Fail-open matching: a node whose Or-of-filters errors (some
	// advertised filter cannot evaluate against this event) is included,
	// exactly as the per-entry baseline includes a node whose filter
	// evaluation errors — the subscriber's local pass decides. The Or
	// yields true or error whenever any term is true or errored, and
	// false only when every term is false, so node-level fail-open
	// composes correctly from per-subscription fail-open.
	matched := p.compound.MatchAppendFailOpen(ev, sc.ids[:0])
	if pruned := len(p.condNodes) - len(matched); pruned > 0 {
		cc.nodesPruned.Add(uint64(pruned))
	}
	dst = mergeSorted(dst, p.always, matched)
	sc.ids = matched[:0]
	t.match.Put(sc)
	return dst
}

// DestinationsWire is Destinations for an event still in compact wire
// form: the compound plan evaluates straight off the payload when every
// referenced path is a field chain, calling full() to materialize the
// event only when some plan path needs a method accessor. A full()
// error fails open to all conditional nodes, mirroring the nil-decode
// path of Destinations.
func (t *Table) DestinationsWire(class string, wp *wire.Prog, payload []byte, full func() (any, error), dst []string) []string {
	p := t.plan(class)
	cc := t.counters(class)
	cc.eventsRouted.Add(1)
	if p.compound == nil {
		return append(dst, p.always...)
	}
	sc := t.match.Get().(*matchScratch)
	matched, err := p.compound.MatchWireAppendFailOpen(wp, payload, full, sc.ids[:0])
	if err != nil {
		sc.ids = matched[:0]
		t.match.Put(sc)
		cc.fallbackEvals.Add(1)
		return mergeSorted(dst, p.always, p.condNodes)
	}
	cc.compoundEvals.Add(1)
	if pruned := len(p.condNodes) - len(matched); pruned > 0 {
		cc.nodesPruned.Add(uint64(pruned))
	}
	dst = mergeSorted(dst, p.always, matched)
	sc.ids = matched[:0]
	t.match.Put(sc)
	return dst
}

// NodesFor appends the sorted set of all candidate nodes for a class —
// every node hosting at least one conforming subscription, filters
// ignored. This is the subscriber-side-placement routing decision (and
// the membership question "who subscribes to this class at all?").
func (t *Table) NodesFor(class string, dst []string) []string {
	p := t.plan(class)
	t.counters(class).eventsRouted.Add(1)
	return mergeSorted(dst, p.always, p.condNodes)
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

// mergeSorted appends the merge of two sorted, disjoint slices to dst.
func mergeSorted(dst []string, a, b []string) []string {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
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
		AdsDeferred:   t.adsDeferred.Load(),
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
	t.plans.Range(func(_, v any) bool {
		s.foldAccessor(v.(*classPlan))
		return true
	})
	return s
}

// foldAccessor adds one class plan's compound accessor counters.
func (s *Stats) foldAccessor(p *classPlan) {
	if p == nil || p.compound == nil {
		return
	}
	ms := p.compound.Stats()
	s.AccessorPrograms += ms.AccessorPrograms
	s.AccessorFallbacks += ms.AccessorFallbacks
	s.PartialDecodes += ms.PartialDecodes
	s.WireMaterializations += ms.WireMaterializations
}

// NoteAdRejected records an advertisement payload the control-plane
// receiver refused before decoding (oversized or malformed framing).
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
		if pv, ok := t.plans.Load(class); ok {
			s.foldAccessor(pv.(*classPlan))
		}
		out[class] = s
		return true
	})
	return out
}
