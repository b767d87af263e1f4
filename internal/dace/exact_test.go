package dace

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// Three flat classes whose published value is not what a subscriber
// decodes: the publisher must route them on the decoded value, as every
// node that evaluates the filter later does.
type (
	// hiddenKeyed's accessor reads a field that does not travel.
	hiddenKeyed struct {
		obvent.Base
		obvent.FIFOOrderBase
		Key    int
		hidden int
	}
	// stampKeyed's accessor reads a field whose marshaler drops it.
	stampKeyed struct {
		obvent.Base
		obvent.FIFOOrderBase
		Key   int
		Stamp dropStamp
	}
	// addrKeyed is published as a pointer; its accessor has a pointer
	// receiver, which a decoded value does not reach.
	addrKeyed struct {
		obvent.Base
		obvent.FIFOOrderBase
		Key int
	}
)

func (e hiddenKeyed) GetHidden() int { return e.hidden }
func (e stampKeyed) GetStamp() int64 { return e.Stamp.N }
func (e *addrKeyed) AddrKey() int    { return e.Key }
func (e addrKeyed) GetKey() int      { return e.Key }

// dropStamp marshals to nothing: a round trip zeroes it.
type dropStamp struct{ N int64 }

func (dropStamp) MarshalBinary() ([]byte, error)  { return nil, nil }
func (s *dropStamp) UnmarshalBinary([]byte) error { *s = dropStamp{}; return nil }

// activate activates a subscription core.Subscribe made.
func activate(s *core.Subscription, err error) error {
	if err != nil {
		return err
	}
	return s.Activate()
}

// TestPublisherRoutesInexactClassesOnTheDecodedValue publishes each
// class with a filter that the published value fails and the decoded
// value does not: the publisher prunes no node and sends every event,
// and the subscriber's dispatch receives each one.
func TestPublisherRoutesInexactClassesOnTheDecodedValue(t *testing.T) {
	for _, tc := range []struct {
		name      string
		class     obvent.Obvent
		f         *filter.Expr
		subscribe func(*core.Engine, *filter.Expr, func()) error
		publish   func(i int) obvent.Obvent
	}{
		{
			"unexported field", hiddenKeyed{}, filter.Path("GetHidden").Lt(filter.Int(1)),
			func(e *core.Engine, f *filter.Expr, got func()) error {
				return activate(core.Subscribe(e, f, func(hiddenKeyed) { got() }))
			},
			func(i int) obvent.Obvent { return hiddenKeyed{Key: i, hidden: 5} },
		},
		{
			"marshaler field", stampKeyed{}, filter.Path("GetStamp").Lt(filter.Int(1)),
			func(e *core.Engine, f *filter.Expr, got func()) error {
				return activate(core.Subscribe(e, f, func(stampKeyed) { got() }))
			},
			func(i int) obvent.Obvent { return stampKeyed{Key: i, Stamp: dropStamp{N: 5}} },
		},
		{
			"published as a pointer", addrKeyed{}, filter.Path("AddrKey").Lt(filter.Int(0)),
			func(e *core.Engine, f *filter.Expr, got func()) error {
				return activate(core.Subscribe(e, f, func(addrKeyed) { got() }))
			},
			func(i int) obvent.Obvent { return &addrKeyed{Key: i} },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg := fastCfg()
			cfg.Placement = AtPublisher
			nodes := newDomain(t, net, 2, cfg)
			for _, n := range nodes {
				n.node.Registry().MustRegister(tc.class)
			}
			pub, sub := nodes[0], nodes[1]
			var got atomic.Int32
			if err := tc.subscribe(sub.engine, tc.f, func() { got.Add(1) }); err != nil {
				t.Fatal(err)
			}
			waitAds(t, pub.node, 1)
			in0 := sub.engine.Stats().EventsIn

			const events = 10
			for i := 0; i < events; i++ {
				if err := core.Publish(pub.engine, tc.publish(i)); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 10*time.Second, "every event at the subscriber's dispatch", func() bool {
				return sub.engine.Stats().EventsIn-in0 == events
			})
			st := pub.node.RoutingStatsByClass()[obvent.TypeName(reflect.TypeOf(tc.class))]
			if st.EventsRouted != events || st.NodesPruned != 0 {
				t.Errorf("publisher routing: EventsRouted = %d, NodesPruned = %d; want %d and 0", st.EventsRouted, st.NodesPruned, events)
			}
			t.Logf("%d of %d delivered past the subscriber's own filter pass", got.Load(), events)
		})
	}
}

// TestPublisherRoutesInexactClassesWithNoAllocation pins the routing
// decision for the three classes whose envelope carries no value: the
// publisher evaluates their payload decoded in place, through the
// accessor the filter names, with no box (it read 1.0 allocation per
// decision while it evaluated a boxed clone).
func TestPublisherRoutesInexactClassesWithNoAllocation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		class obvent.Obvent
		f     *filter.Expr
		event obvent.Obvent
	}{
		{"unexported field", hiddenKeyed{}, filter.Path("GetHidden").Lt(filter.Int(1)), hiddenKeyed{Key: 1, hidden: 5}},
		{"marshaler field", stampKeyed{}, filter.Path("GetStamp").Lt(filter.Int(1)), stampKeyed{Key: 1, Stamp: dropStamp{N: 5}}},
		{"published as a pointer", addrKeyed{}, filter.Path("GetKey").Lt(filter.Int(2)), &addrKeyed{Key: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg := fastCfg()
			cfg.Placement = AtPublisher
			nodes := newDomain(t, net, 2, cfg)
			for _, n := range nodes {
				n.node.Registry().MustRegister(tc.class)
			}
			pub, sub := nodes[0], nodes[1]
			if err := activate(sub.engine.SubscribeDynamic(reflect.TypeOf(tc.class), tc.f, nil, func(obvent.Obvent) {})); err != nil {
				t.Fatal(err)
			}
			waitAds(t, pub.node, 1)

			env, err := pub.engine.Codec().Encode(tc.event)
			if err != nil {
				t.Fatal(err)
			}
			if env.Value() != nil {
				t.Fatal("the envelope carries its value: the class is exact")
			}
			var buf destScratch
			route := func() { buf.ids = pub.node.destinationsFor(env, &buf, buf.ids[:0]) }
			route() // compiles the class's routing plan
			if len(buf.ids) != 1 {
				t.Fatalf("routed to %v, want the subscriber's node", buf.ids)
			}
			got := allocs.PerRun(200, route)
			t.Logf("%.2f allocations per routing decision", got)
			if got > 0 && !raceEnabled {
				t.Errorf("a routing decision costs %.2f allocations, want 0", got)
			}
		})
	}
}
