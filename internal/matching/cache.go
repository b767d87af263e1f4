package matching

import (
	"sync"

	"govents/internal/obvent"
)

// Cache keeps one compiled plan per event class: a Compound over the
// class's candidates and what its table compiled beside it (X). The
// routing table on a publisher and the dispatch table on a subscriber
// both keep their plans here, so both follow one rule: a cached plan
// serves while the generation it was compiled under is current, and a
// class the registry does not know is compiled per call and never
// cached (class names come off the wire; caching arbitrary strings would
// grow the cache without bound).
type Cache[X any] struct {
	reg     *obvent.Registry
	gen     func() uint64
	compile func(class string) (*Compound, X)
	plans   sync.Map // class -> *cached[X]
}

type cached[X any] struct {
	gen uint64
	c   *Compound
	x   X
}

// NewCache returns an empty cache. gen must grow whenever a compiled
// plan may have gone stale (registry generations included).
func NewCache[X any](reg *obvent.Registry, gen func() uint64, compile func(class string) (*Compound, X)) *Cache[X] {
	return &Cache[X]{reg: reg, gen: gen, compile: compile}
}

// Get returns the plan of a class, compiling it when none is cached
// under the current generation. The generation is read before compiling:
// a change racing with compilation at worst stamps the plan older than
// what it holds, and the next call compiles again.
func (c *Cache[X]) Get(class string) (*Compound, X) {
	gen := c.gen()
	if v, ok := c.plans.Load(class); ok {
		if p := v.(*cached[X]); p.gen == gen {
			return p.c, p.x
		}
	}
	cmp, x := c.compile(class)
	if _, known := c.reg.TypeByName(class); known {
		c.plans.Store(class, &cached[X]{gen: gen, c: cmp, x: x})
	}
	return cmp, x
}

// Range calls fn for every cached class and its matcher until fn
// returns false.
func (c *Cache[X]) Range(fn func(class string, m *Compound) bool) {
	c.plans.Range(func(k, v any) bool { return fn(k.(string), v.(*cached[X]).c) })
}

// AccessorStats sums the accessor counters (AccessorPrograms,
// AccessorFallbacks) of the cached plans: of every class, or of one when class is not empty.
func (c *Cache[X]) AccessorStats(class string) Stats {
	var s Stats
	c.Range(func(k string, m *Compound) bool {
		if class == "" || k == class {
			ms := m.Stats()
			s.AccessorPrograms += ms.AccessorPrograms
			s.AccessorFallbacks += ms.AccessorFallbacks
		}
		return true
	})
	return s
}
