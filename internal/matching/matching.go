// Package matching implements compound filters: the factoring of many
// subscribers' filters, gathered on a filtering host, into a single
// matcher that exploits their redundancy (paper §2.3.2: "a compound
// filter can be generated which factors out redundancies between these
// individual filters. By doing so, performance can be significantly
// improved (e.g., [ASS+99])").
//
// Three optimizations are applied, following Aguilera et al. [ASS+99]:
//
//  1. Common-subexpression elimination: syntactically identical leaf
//     conditions (by canonical form) across all subscriptions are
//     evaluated exactly once per event, and accessor paths shared by
//     different conditions are resolved exactly once per event.
//
//  2. Threshold indexing: numeric comparisons of the same accessor path
//     (Price < 100, Price < 250, Price >= 50, ...) are grouped and
//     resolved with one path evaluation plus binary searches over the
//     sorted thresholds, instead of one full evaluation per condition.
//
//  3. Accessor compilation: the unique-path table is compiled, per
//     event type on first sight, into index-based accessor programs
//     (package accessor) so steady-state matching performs no
//     name-based reflection at all; paths that cannot compile for a
//     type fall back to reflective resolution per event, preserving
//     fail-open semantics exactly. Programs live as long as the plan.
//
// The same matcher answers "which candidates of this class does an
// event reach" on both sides of the wire: on a publisher its IDs are
// nodes (package routing), on a subscriber they are subscriptions (the
// engine's dispatch table). Both keep one plan per class in a Cache.
//
// Compound matching is semantically transparent: Match returns exactly
// the entries whose filter would individually accept the event
// (property-tested against filter.Evaluate).
package matching

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"govents/internal/accessor"
	"govents/internal/filter"
	"govents/internal/wire"
)

// Compound is a factored matcher over a set of entries, each an ID and a
// filter; a nil filter matches every event. It is built once: AddBatch
// compiles the entries into an immutable plan and publishes it, and the
// Match methods load that plan without a lock, so they are safe for
// concurrent use with each other and with AddBatch.
type Compound struct {
	mu   sync.Mutex // serializes AddBatch; matching never takes it
	plan atomic.Pointer[plan]
}

// accessorCounters tracks the accessor-program activity of one plan.
type accessorCounters struct {
	// compiles counts per-(event type, path) programs compiled.
	compiles atomic.Uint64
	// fallbacks counts per-event path resolutions that went through
	// reflective filter.ResolvePath because no program could compile.
	fallbacks atomic.Uint64
	// partials counts wire-encoded events evaluated entirely from their
	// compact payload — plan decided, event never materialized.
	partials atomic.Uint64
	// materialized counts wire-encoded events that had to be fully
	// decoded to evaluate the plan (a referenced path goes through an
	// accessor method, or the payload failed partial extraction).
	materialized atomic.Uint64
}

// emptyPlan is the plan of a Compound no AddBatch has added to. It
// matches nothing, so its counters never move.
var emptyPlan = compile(nil)

// New returns an empty compound matcher.
func New() *Compound {
	c := &Compound{}
	c.plan.Store(emptyPlan)
	return c
}

// AddBatch registers (or replaces) many entries at once and publishes
// the plan compiled over everything registered so far. A nil filter
// matches every event. On a validation error nothing is registered.
func (c *Compound) AddBatch(filters map[string]*filter.Expr) error {
	for id, e := range filters {
		if e == nil {
			continue
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("matching: add %s: %w", id, err)
		}
	}
	if len(filters) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.plan.Load().subs
	subs := make(map[string]*filter.Expr, len(old)+len(filters))
	maps.Copy(subs, old)
	maps.Copy(subs, filters)
	c.plan.Store(compile(subs))
	return nil
}

// IDs returns every entry's ID, sorted. The slice is shared: callers
// must not modify it.
func (c *Compound) IDs() []string { return c.plan.Load().ids }

// Unfiltered reports whether every entry matches every event (no entry
// has a filter, or there is none): a match then needs no event.
func (c *Compound) Unfiltered() bool { return !c.plan.Load().filtered }

// Stats describes the factoring achieved by the current plan.
type Stats struct {
	// Subscriptions is the number of registered entries.
	Subscriptions int
	// TotalConds is the total number of leaf conditions across all
	// entries' filters (what a naive matcher evaluates).
	TotalConds int
	// UniqueConds is the number of distinct conditions after
	// common-subexpression elimination (what the compound evaluates).
	UniqueConds int
	// IndexedConds is how many of the unique conditions are resolved
	// through the numeric threshold index.
	IndexedConds int
	// UniquePaths is the number of distinct accessor paths resolved
	// per event.
	UniquePaths int
	// AccessorPrograms is the number of compiled accessor programs the
	// current plan has built: one per (event type, unique path) pair it
	// has seen. Type layouts never change, so a program is compiled at
	// most once per plan per type.
	AccessorPrograms uint64
	// AccessorFallbacks counts per-event path resolutions that fell back
	// to reflective lookup because the path cannot compile against the
	// event's type (it then fails open per event, exactly as before).
	AccessorFallbacks uint64
	// PartialDecodes counts wire-encoded events this plan evaluated
	// without materializing them: every path the plan references was
	// extracted straight from the compact payload.
	PartialDecodes uint64
	// WireMaterializations counts wire-encoded events that needed a full
	// decode to evaluate (method-accessor paths, or a payload that failed
	// extraction).
	WireMaterializations uint64
}

// Stats returns the factoring statistics and accessor counters of the
// current plan.
func (c *Compound) Stats() Stats {
	p := c.plan.Load()
	st := p.stats
	st.AccessorPrograms = p.acc.compiles.Load()
	st.AccessorFallbacks = p.acc.fallbacks.Load()
	st.PartialDecodes = p.acc.partials.Load()
	st.WireMaterializations = p.acc.materialized.Load()
	return st
}

// Match returns the sorted IDs of all entries whose filter accepts the
// event. Conditions that fail to evaluate (missing accessor, type
// mismatch) count as false for the affected entries only.
func (c *Compound) Match(event any) []string {
	return c.MatchAppend(event, nil)
}

// MatchAppend is Match appending into dst (which may be nil), for
// callers on a hot path that reuse one output buffer across events: the
// engine dispatch loop matches thousands of envelopes per second and
// must not allocate a fresh result slice per envelope. The appended IDs
// are sorted; dst's existing contents are preserved.
func (c *Compound) MatchAppend(event any, dst []string) []string {
	return c.plan.Load().match(event, false, dst, false)
}

// MatchAppendFailOpen is MatchAppend with fail-open error semantics: an
// entry whose formula cannot be evaluated (missing accessor, type
// mismatch) is appended alongside the true matches instead of being
// rejected. Publisher-side filtering hosts use this mode — an
// unevaluable remote filter must not suppress the send, because the
// subscriber's own evaluation is the authoritative pass (paper §2.3.2:
// remote filtering is an optimization, never a semantic change).
func (c *Compound) MatchAppendFailOpen(event any, dst []string) []string {
	return c.plan.Load().match(event, false, dst, true)
}

// MatchWireAppend evaluates the plan against a wire-encoded event,
// materializing it only when it must: when every accessor path the plan
// references is a structural (field/deref) chain, the referenced values
// are extracted straight from the compact payload by a per-(type, plan)
// extractor program and the event is never decoded at all. Plans
// referencing accessor methods — whose results are not wire locations —
// fall back to one full compiled decode via full, which also backstops
// malformed payloads (extraction and full decode reject exactly the
// same inputs, so corrupt input is observed identically on both paths).
// full returns the event, or a pointer to it (a *T for the payload's
// class T, decoded in place), which is evaluated as the value it points
// at, with no copy. An Unfiltered compound touches neither. A non-nil
// error is full's decode failure; no IDs were appended.
func (c *Compound) MatchWireAppend(wp *wire.Prog, payload []byte, full func() (any, error), dst []string) ([]string, error) {
	return c.plan.Load().matchWire(wp, payload, full, dst, false)
}

// MatchWireAppendFailOpen is MatchWireAppend with fail-open error
// semantics (see MatchAppendFailOpen): publisher-side filtering hosts
// must ship on evaluation errors, never suppress.
func (c *Compound) MatchWireAppendFailOpen(wp *wire.Prog, payload []byte, full func() (any, error), dst []string) ([]string, error) {
	return c.plan.Load().matchWire(wp, payload, full, dst, true)
}

// MatchNaive evaluates every entry's filter independently. It is the
// baseline the compound matcher is benchmarked against, and the
// reference implementation for transparency tests.
func (c *Compound) MatchNaive(event any) []string {
	var out []string
	for id, e := range c.plan.Load().subs {
		if e == nil {
			out = append(out, id)
			continue
		}
		ok, err := filter.Evaluate(e, event)
		if err == nil && ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// --- compilation ---

// plan is an immutable compiled matcher.
type plan struct {
	// subs are the entries the plan was compiled from (nil filter: match
	// every event), kept for the next AddBatch and for MatchNaive.
	subs map[string]*filter.Expr

	conds []*filter.Cond // unique conditions, by slot

	// Every entry's formula, aligned by index and sorted by ID so match
	// emits sorted output without a per-event sort or merge. A nil
	// formula is an entry without a filter.
	ids   []string
	progs [][]finstr
	// filtered reports whether some entry has a formula; without one,
	// every match is ids and needs no event.
	filtered bool

	// paths: unique accessor paths resolved once per event.
	paths    []pathSlot
	pathSlot map[string]int

	// programs caches, per concrete event root type, the accessor
	// programs compiled for this plan's unique paths (aligned with
	// paths; a nil entry means the path cannot compile for that type and
	// falls back to reflective resolution per event). Compiled on first
	// sight of a type; a type's layout never changes, so entries stay
	// valid for the plan's lifetime. Growth is capped at
	// maxProgramTypes: the routing and dispatch plans see one type each,
	// and a caller feeding one matcher arbitrarily many event types must
	// degrade to the reflective fallback, not grow memory without bound.
	programs     sync.Map // reflect.Type -> []*accessor.Program
	programTypes atomic.Int64

	// extractors caches, per concrete event type, the wire extractor
	// resolving this plan's unique paths from compact payloads — or a
	// nil entry when the plan cannot be evaluated lazily for that type
	// (a referenced path goes through an accessor method). Lifetime and
	// invalidation mirror programs: valid until plan replacement.
	extractors sync.Map // reflect.Type -> wireExt

	// acc counts the accessor-program activity of this plan.
	acc accessorCounters

	// direct: conditions evaluated one-by-one (referencing path slots).
	direct []directCond

	// Numeric threshold groups, keyed by path slot.
	groups []thresholdGroup

	// maxStack bounds the evaluation stack any program needs.
	maxStack int

	// scratch pools per-match working state (path values, condition
	// results, evaluation stack) so steady-state matching does not
	// allocate. Pooled per plan because slice sizes are plan-specific.
	scratch sync.Pool

	stats Stats
}

type pathSlot struct {
	path []string
}

// directCond is a non-indexed condition: operands are either path slots
// or constants.
type directCond struct {
	slot     int // condition slot to fill
	op       filter.CmpOp
	lhsPath  int // -1 if constant
	lhsConst filter.Constant
	rhsPath  int
	rhsConst filter.Constant
}

// thresholdGroup evaluates all `path op const-number` conditions for one
// path with binary searches.
type thresholdGroup struct {
	pathIdx int
	// Sorted ascending by threshold, one list per operator family.
	lt, le, gt, ge []thresholdCond
	eq             map[float64][]int // threshold -> condition slots
	ne             []thresholdCond
}

type thresholdCond struct {
	threshold float64
	slot      int
}

// finstr is one postfix instruction of a flattened boolean formula.
// Formulas are evaluated iteratively over a small value stack instead of
// recursing through a pointer tree: the instruction array is contiguous
// (cache-friendly) and evaluation needs no call-frame allocation.
type finstr struct {
	op filter.ExprKind
	// arg is the condition slot for KindLeaf and the child count for
	// KindAnd/KindOr.
	arg int
}

// compile builds a plan from a set of entries.
func compile(subs map[string]*filter.Expr) *plan {
	p := &plan{subs: subs, pathSlot: make(map[string]int)}
	p.scratch.New = func() any { return &matchScratch{} }
	condSlot := make(map[string]int)

	ids := make([]string, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic plans

	total := 0
	p.ids = ids
	p.progs = make([][]finstr, len(ids))
	for i, id := range ids {
		if subs[id] == nil {
			continue
		}
		p.filtered = true
		prog := p.compileExpr(subs[id], condSlot, &total, nil)
		p.progs[i] = prog
		if d := stackDepth(prog); d > p.maxStack {
			p.maxStack = d
		}
	}

	// Partition unique conditions into indexed and direct.
	groupByPath := make(map[int]*thresholdGroup)
	for i, cond := range p.conds {
		if tg := p.tryIndex(i, cond, groupByPath); tg {
			continue
		}
		p.direct = append(p.direct, p.compileDirect(i, cond))
	}
	// Deterministic group order.
	slots := make([]int, 0, len(groupByPath))
	for s := range groupByPath {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	indexed := 0
	for _, s := range slots {
		g := groupByPath[s]
		for _, l := range [][]thresholdCond{g.lt, g.le, g.gt, g.ge, g.ne} {
			sort.Slice(l, func(i, j int) bool { return l[i].threshold < l[j].threshold })
			indexed += len(l)
		}
		for _, cs := range g.eq {
			indexed += len(cs)
		}
		p.groups = append(p.groups, *g)
	}

	p.stats = Stats{
		Subscriptions: len(subs),
		TotalConds:    total,
		UniqueConds:   len(p.conds),
		IndexedConds:  indexed,
		UniquePaths:   len(p.paths),
	}
	return p
}

// compileExpr interns leaf conditions and appends the expression's
// postfix program to prog: children first, then the combining operator
// carrying its child count.
func (p *plan) compileExpr(e *filter.Expr, condSlot map[string]int, total *int, prog []finstr) []finstr {
	switch e.Kind {
	case filter.KindConstTrue, filter.KindConstFalse:
		return append(prog, finstr{op: e.Kind})
	case filter.KindLeaf:
		*total++
		key := e.Cond.Canon()
		slot, ok := condSlot[key]
		if !ok {
			slot = len(p.conds)
			condSlot[key] = slot
			p.conds = append(p.conds, e.Cond)
		}
		return append(prog, finstr{op: filter.KindLeaf, arg: slot})
	case filter.KindNot:
		prog = p.compileExpr(e.Children[0], condSlot, total, prog)
		return append(prog, finstr{op: filter.KindNot})
	default: // And/Or
		for _, c := range e.Children {
			prog = p.compileExpr(c, condSlot, total, prog)
		}
		return append(prog, finstr{op: e.Kind, arg: len(e.Children)})
	}
}

// stackDepth computes the peak evaluation-stack depth of a program.
func stackDepth(prog []finstr) int {
	depth, max := 0, 0
	for _, in := range prog {
		switch in.op {
		case filter.KindConstTrue, filter.KindConstFalse, filter.KindLeaf:
			depth++
		case filter.KindAnd, filter.KindOr:
			depth -= in.arg - 1
		}
		if depth > max {
			max = depth
		}
	}
	return max
}

// internPath returns the slot of an accessor path, creating it if new.
func (p *plan) internPath(path []string) int {
	key := strings.Join(path, ".")
	if s, ok := p.pathSlot[key]; ok {
		return s
	}
	s := len(p.paths)
	p.pathSlot[key] = s
	p.paths = append(p.paths, pathSlot{path: path})
	return s
}

// tryIndex adds `path op numeric-const` conditions to a threshold group.
// Returns false when the condition does not fit the index shape.
func (p *plan) tryIndex(slot int, c *filter.Cond, groups map[int]*thresholdGroup) bool {
	if len(c.LHS.Path) == 0 || len(c.RHS.Path) != 0 {
		return false
	}
	if c.RHS.Const.Kind != filter.ConstInt && c.RHS.Const.Kind != filter.ConstFloat {
		return false
	}
	switch c.Op {
	case filter.OpLt, filter.OpLe, filter.OpGt, filter.OpGe, filter.OpEq, filter.OpNe:
	default:
		return false
	}
	pi := p.internPath(c.LHS.Path)
	g, ok := groups[pi]
	if !ok {
		g = &thresholdGroup{pathIdx: pi, eq: make(map[float64][]int)}
		groups[pi] = g
	}
	th := c.RHS.Const.AsFloat()
	tc := thresholdCond{threshold: th, slot: slot}
	switch c.Op {
	case filter.OpLt:
		g.lt = append(g.lt, tc)
	case filter.OpLe:
		g.le = append(g.le, tc)
	case filter.OpGt:
		g.gt = append(g.gt, tc)
	case filter.OpGe:
		g.ge = append(g.ge, tc)
	case filter.OpEq:
		g.eq[th] = append(g.eq[th], slot)
	case filter.OpNe:
		g.ne = append(g.ne, tc)
	}
	return true
}

// compileDirect prepares a directly evaluated condition.
func (p *plan) compileDirect(slot int, c *filter.Cond) directCond {
	d := directCond{slot: slot, op: c.Op, lhsPath: -1, rhsPath: -1}
	if len(c.LHS.Path) > 0 {
		d.lhsPath = p.internPath(c.LHS.Path)
	} else {
		d.lhsConst = c.LHS.Const
	}
	if len(c.RHS.Path) > 0 {
		d.rhsPath = p.internPath(c.RHS.Path)
	} else {
		d.rhsConst = c.RHS.Const
	}
	return d
}

// --- matching ---

// Tri-state condition outcomes. A condition that fails to evaluate
// poisons (rejects) exactly the subscriptions whose formula reaches it,
// matching filter.Evaluate's short-circuiting error semantics.
const (
	rFalse uint8 = iota
	rTrue
	rErr
)

// matchScratch is the pooled per-match working state.
type matchScratch struct {
	vals    []filter.Constant
	valOK   []bool
	results []uint8
	stack   []uint8
}

// getScratch returns a scratch sized for this plan, with results and
// valOK zeroed (rFalse / not-resolved).
func (p *plan) getScratch() *matchScratch {
	sc := p.scratch.Get().(*matchScratch)
	if cap(sc.vals) < len(p.paths) {
		sc.vals = make([]filter.Constant, len(p.paths))
		sc.valOK = make([]bool, len(p.paths))
	}
	sc.vals = sc.vals[:len(p.paths)]
	sc.valOK = sc.valOK[:len(p.paths)]
	clear(sc.valOK)
	if cap(sc.results) < len(p.conds) {
		sc.results = make([]uint8, len(p.conds))
	}
	sc.results = sc.results[:len(p.conds)]
	clear(sc.results)
	if cap(sc.stack) < p.maxStack {
		sc.stack = make([]uint8, 0, p.maxStack)
	}
	sc.stack = sc.stack[:0]
	return sc
}

// match evaluates the plan against one event, appending matches to dst.
// With failOpen, formulas whose outcome is an evaluation error count as
// matches (the caller ships and lets the subscriber decide).
//
// With inPlace, event is a pointer to the event, evaluated as the value
// it points at (matchWire).
func (p *plan) match(event any, inPlace bool, dst []string, failOpen bool) []string {
	if !p.filtered {
		return append(dst, p.ids...)
	}
	sc := p.getScratch()
	defer p.scratch.Put(sc)

	// 1. Resolve every unique path once, through the accessor programs
	// compiled for this event type (first sight compiles them); paths
	// that cannot compile fall back to reflective resolution per event.
	rv := reflect.ValueOf(event)
	if inPlace {
		rv = rv.Elem()
	}
	var progs []*accessor.Program
	if len(p.paths) > 0 && rv.IsValid() {
		progs = p.programsFor(rv.Type())
	}
	vals := sc.vals
	valOK := sc.valOK
	for i, ps := range p.paths {
		var c filter.Constant
		if progs != nil && progs[i] != nil {
			var err error
			if inPlace {
				c, err = progs[i].ConstantAt(event)
			} else {
				c, err = progs[i].Constant(event)
			}
			if err != nil {
				continue
			}
		} else {
			p.acc.fallbacks.Add(1)
			if rv.CanAddr() {
				// In place: ResolvePath reaches the pointer method set
				// of an addressable value. Resolve on a copy, as on the
				// value.
				rv = reflect.ValueOf(rv.Interface())
			}
			v, err := filter.ResolvePath(rv, ps.path)
			if err != nil {
				continue
			}
			if c, err = filter.ValueOf(v); err != nil {
				continue
			}
		}
		vals[i], valOK[i] = c, true
	}

	return p.evalConditions(sc, dst, failOpen)
}

// matchWire evaluates the plan against one wire-encoded event: path
// resolution (step 1) runs as a partial extraction over the compact
// payload when the per-(type, plan) extractor covers every referenced
// path, and the shared condition/formula evaluation (steps 2–3) runs
// over the extracted values. Otherwise the event is materialized once
// via full and matched normally.
func (p *plan) matchWire(wp *wire.Prog, payload []byte, full func() (any, error), dst []string, failOpen bool) ([]string, error) {
	if !p.filtered {
		return append(dst, p.ids...), nil
	}
	if ex := p.extractorFor(wp.Type()); ex != nil {
		sc := p.getScratch()
		if err := ex.Extract(payload, sc.vals, sc.valOK); err == nil {
			p.acc.partials.Add(1)
			dst = p.evalConditions(sc, dst, failOpen)
			p.scratch.Put(sc)
			return dst, nil
		}
		// Malformed payload: fall through to materialization, whose
		// decode rejects the same input with the authoritative error.
		p.scratch.Put(sc)
	}
	event, err := full()
	if err != nil {
		return dst, err
	}
	p.acc.materialized.Add(1)
	rt := reflect.TypeOf(event)
	inPlace := rt != nil && rt.Kind() == reflect.Pointer && rt.Elem() == wp.Type()
	return p.match(event, inPlace, dst, failOpen), nil
}

// extractorFor returns the wire extractor evaluating this plan's paths
// for one event type, or nil when lazy evaluation is impossible for it.
// The steady-state path is one lock-free map hit. An extractor exists
// only when it covers every unique path: a partially resolved value
// table could not reproduce the materialized path's error semantics for
// the uncovered paths.
func (p *plan) extractorFor(t reflect.Type) *wire.Extractor {
	if v, ok := p.extractors.Load(t); ok {
		return v.(wireExt).ex
	}
	var ex *wire.Extractor
	if progs := p.programsFor(t); progs != nil {
		chains := make([][]int, len(p.paths))
		all := true
		for i, prog := range progs {
			if prog == nil {
				all = false
				break
			}
			chain, ok := prog.FieldSteps()
			if !ok {
				all = false
				break
			}
			chains[i] = chain
		}
		if all {
			if compiled, err := wire.CompileExtract(t, chains); err == nil && compiled.AllAble() {
				ex = compiled
			}
		}
	}
	if v, loaded := p.extractors.LoadOrStore(t, wireExt{ex}); loaded {
		return v.(wireExt).ex
	}
	return ex
}

// wireExt is one cached extractor outcome (nil = materialize).
type wireExt struct{ ex *wire.Extractor }

// evalConditions runs the plan's condition evaluation (step 2) and
// per-subscription formulas (step 3) over the resolved path values in
// sc, appending matches to dst. Shared verbatim by the materialized and
// wire paths, so the two can never drift semantically.
func (p *plan) evalConditions(sc *matchScratch, dst []string, failOpen bool) []string {
	vals := sc.vals
	valOK := sc.valOK

	// 2. Evaluate unique conditions.
	results := sc.results

	// 2a. Threshold groups: one comparison set per path.
	for gi := range p.groups {
		g := &p.groups[gi]
		groupErr := !valOK[g.pathIdx]
		var v float64
		if !groupErr {
			c := vals[g.pathIdx]
			if c.Kind != filter.ConstInt && c.Kind != filter.ConstFloat {
				groupErr = true // type mismatch errors in direct evaluation
			} else {
				v = c.AsFloat()
			}
		}
		if groupErr {
			for _, l := range [][]thresholdCond{g.lt, g.le, g.gt, g.ge, g.ne} {
				for _, tc := range l {
					results[tc.slot] = rErr
				}
			}
			for _, slots := range g.eq {
				for _, slot := range slots {
					results[slot] = rErr
				}
			}
			continue
		}
		// path < threshold holds for every threshold strictly above v.
		idx := sort.Search(len(g.lt), func(i int) bool { return g.lt[i].threshold > v })
		for _, tc := range g.lt[idx:] {
			results[tc.slot] = rTrue
		}
		// path <= threshold holds for thresholds >= v.
		idx = sort.Search(len(g.le), func(i int) bool { return g.le[i].threshold >= v })
		for _, tc := range g.le[idx:] {
			results[tc.slot] = rTrue
		}
		// path > threshold holds for thresholds strictly below v.
		idx = sort.Search(len(g.gt), func(i int) bool { return g.gt[i].threshold >= v })
		for _, tc := range g.gt[:idx] {
			results[tc.slot] = rTrue
		}
		// path >= threshold holds for thresholds <= v.
		idx = sort.Search(len(g.ge), func(i int) bool { return g.ge[i].threshold > v })
		for _, tc := range g.ge[:idx] {
			results[tc.slot] = rTrue
		}
		for _, slot := range g.eq[v] {
			results[slot] = rTrue
		}
		for _, tc := range g.ne {
			if tc.threshold != v {
				results[tc.slot] = rTrue
			}
		}
	}

	// 2b. Direct conditions.
	for _, d := range p.direct {
		lhs, rhs := d.lhsConst, d.rhsConst
		if d.lhsPath >= 0 {
			if !valOK[d.lhsPath] {
				results[d.slot] = rErr
				continue
			}
			lhs = vals[d.lhsPath]
		}
		if d.rhsPath >= 0 {
			if !valOK[d.rhsPath] {
				results[d.slot] = rErr
				continue
			}
			rhs = vals[d.rhsPath]
		}
		ok, err := filter.Compare(d.op, lhs, rhs)
		switch {
		case err != nil:
			results[d.slot] = rErr
		case ok:
			results[d.slot] = rTrue
		}
	}

	// 3. Evaluate each entry's formula over the results; an entry
	// without one matches. IDs are pre-sorted, so the appended output is
	// sorted without a per-event sort.
	for i, prog := range p.progs {
		if prog == nil {
			dst = append(dst, p.ids[i])
			continue
		}
		switch evalProg(prog, results, sc.stack[:0]) {
		case rTrue:
			dst = append(dst, p.ids[i])
		case rErr:
			if failOpen {
				dst = append(dst, p.ids[i])
			}
		}
	}
	return dst
}

// maxProgramTypes bounds how many distinct event root types one plan
// compiles program tables for. Routing and dispatch plans see exactly
// one type each; the cap only bites a caller matching heterogeneous
// types through one matcher, who then falls back to reflective
// resolution (visible as AccessorFallbacks).
const maxProgramTypes = 256

// programsFor returns the accessor programs for one event root type,
// compiling the plan's unique-path table against it on first sight.
// The steady-state path is one lock-free map hit; nil means "use the
// reflective fallback" (over-cap, or — entry-wise — uncompilable path).
func (p *plan) programsFor(t reflect.Type) []*accessor.Program {
	if v, ok := p.programs.Load(t); ok {
		return v.([]*accessor.Program)
	}
	if p.programTypes.Load() >= maxProgramTypes {
		return nil
	}
	list := make([]*accessor.Program, len(p.paths))
	compiled := uint64(0)
	for i, ps := range p.paths {
		if prog, err := accessor.Compile(t, ps.path); err == nil {
			list[i] = prog
			compiled++
		}
	}
	if v, loaded := p.programs.LoadOrStore(t, list); loaded {
		// A concurrent matcher compiled the same table first; count
		// nothing and use its copy.
		return v.([]*accessor.Program)
	}
	p.programTypes.Add(1)
	p.acc.compiles.Add(compiled)
	return list
}

// evalProg runs a postfix program over the condition results. Although
// all conditions are pre-evaluated (so nothing is skipped), the
// combining rules reproduce filter.Evaluate's in-order short-circuiting
// exactly: an And yields the first non-true child outcome in child
// order (so a false child hides a later error, but an error before the
// first false poisons the formula), an Or the first non-false one.
func evalProg(prog []finstr, results []uint8, stack []uint8) uint8 {
	for _, in := range prog {
		switch in.op {
		case filter.KindConstTrue:
			stack = append(stack, rTrue)
		case filter.KindConstFalse:
			stack = append(stack, rFalse)
		case filter.KindLeaf:
			stack = append(stack, results[in.arg])
		case filter.KindNot:
			switch stack[len(stack)-1] {
			case rTrue:
				stack[len(stack)-1] = rFalse
			case rFalse:
				stack[len(stack)-1] = rTrue
			}
		case filter.KindAnd:
			base := len(stack) - in.arg
			v := rTrue
			for _, r := range stack[base:] {
				if r != rTrue {
					v = r
					break
				}
			}
			stack = append(stack[:base], v)
		case filter.KindOr:
			base := len(stack) - in.arg
			v := rFalse
			for _, r := range stack[base:] {
				if r != rFalse {
					v = r
					break
				}
			}
			stack = append(stack[:base], v)
		default:
			return rErr
		}
	}
	return stack[len(stack)-1]
}
