package dace

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// TestPublisherRoutingOneCompoundEvalPerEvent pins the routing plane's
// core bargain: with Placement AtPublisher, publishing an unordered
// event costs exactly one compound evaluation for its class, no matter
// how many remote subscriptions are advertised.
func TestPublisherRoutingOneCompoundEvalPerEvent(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.Placement = AtPublisher
	nodes := newDomain(t, net, 3, cfg)
	pub, subA, subB := nodes[0], nodes[1], nodes[2]

	const perNode = 40
	var got atomic.Int32
	for i, sn := range []*testNode{subA, subB} {
		for j := 0; j < perNode; j++ {
			threshold := float64((j + 1) * 25)
			f := filter.Path("GetPrice").Lt(filter.Float(threshold))
			s, err := core.Subscribe(sn.engine, f, func(q StockQuote) { got.Add(1) })
			if err != nil {
				t.Fatalf("node %d sub %d: %v", i, j, err)
			}
			if err := s.Activate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitAds(t, pub.node, 2*perNode)

	const events = 5
	for i := 0; i < events; i++ {
		if err := core.Publish(pub.engine, StockQuote{StockObvent{Company: "T", Price: 500}}); err != nil {
			t.Fatal(err)
		}
	}
	// Price 500 passes thresholds 525..1000: 20 subs per node.
	waitFor(t, 10*time.Second, "filtered deliveries", func() bool {
		return got.Load() == int32(events*2*20)
	})

	class := obvent.TypeName(obvent.TypeOf[StockQuote]())
	st, ok := pub.node.RoutingStatsByClass()[class]
	if !ok {
		names := make([]string, 0)
		for k := range pub.node.RoutingStatsByClass() {
			names = append(names, k)
		}
		t.Fatalf("no routing stats for %q (have %v)", class, names)
	}
	if st.EventsRouted != events {
		t.Errorf("EventsRouted = %d, want %d", st.EventsRouted, events)
	}
	if st.CompoundEvals != events {
		t.Errorf("CompoundEvals = %d for %d events over %d remote subscriptions, want %d",
			st.CompoundEvals, events, 2*perNode, events)
	}
	if st.FallbackEvals != 0 {
		t.Errorf("FallbackEvals = %d, want 0", st.FallbackEvals)
	}
}

// TestCorruptOrSlowAdCannotStallPublish is the regression test for the
// control-plane locking discipline: advertisement decoding happens
// outside the node mutex, so a flood of corrupt and of huge (slow to
// decode) advertisements must not stall PublishEnvelope or delivery.
func TestCorruptOrSlowAdCannotStallPublish(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.Placement = AtPublisher
	nodes := newDomain(t, net, 2, cfg)
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	f := filter.Path("GetPrice").Lt(filter.Float(100))
	s, err := core.Subscribe(sub.engine, f, func(q StockQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)

	// An interloper floods the control channel with corrupt payloads
	// and with huge, slow-to-decode (but well-formed) advertisements of
	// types nobody conforms to.
	ep, err := net.NewEndpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	mux := multicast.NewMux(ep)
	ctrl := multicast.NewReliable(mux, "dace/ctrl", func(string, []byte) {}, fastCfg().Multicast)
	defer ctrl.Close()
	ctrl.SetMembers([]string{"node-0", "node-1", "evil"})

	bigFilter, err := filter.MarshalCanonical(filter.And(
		filter.Path("GetPrice").Lt(filter.Float(10)),
		filter.Path("GetCompany").Contains(filter.Str("nobody")),
	))
	if err != nil {
		t.Fatal(err)
	}
	hugeSubs := make([]core.SubscriptionInfo, 2000)
	for i := range hugeSubs {
		hugeSubs[i] = core.SubscriptionInfo{
			ID:       fmt.Sprintf("evil/sub-%04d", i),
			TypeName: "no.such.Type",
			Filter:   bigFilter,
		}
	}
	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		seq := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				_ = ctrl.Broadcast([]byte("\xff\x00this is not an ad record\x13\x37"))
				continue
			}
			seq++
			payload, err := encodeAd(&subscriptionAd{Node: "evil", Seq: seq, Subs: hugeSubs})
			if err != nil {
				return
			}
			_ = ctrl.Broadcast(payload)
		}
	}()

	// Publishing must make progress while the flood is in flight.
	const events = 50
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < events; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("publish loop stalled at event %d under ad flood", i)
		}
		if err := core.Publish(pub.engine, StockQuote{StockObvent{Company: "T", Price: 50}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, "deliveries under ad flood", func() bool {
		return got.Load() == events
	})
	close(stop)
	flood.Wait()
}

// TestAdSpeaksOnlyForItsSender: an advertisement names the node whose
// subscriptions it carries, and the control link names the node that
// sent it. An ad from a third endpoint naming node-1 under a newer epoch
// must be refused and counted, not taken for node-1's rebirth: that
// would drop node-1's routing state and refuse node-1's own later ads as
// a dead incarnation's.
func TestAdSpeaksOnlyForItsSender(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]
	class := obvent.TypeName(obvent.TypeOf[StockQuote]())

	subscribe := func() string {
		s, err := core.Subscribe(sub.engine, nil, func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
		return s.ID()
	}
	want := map[[2]string]bool{{"node-1", subscribe()}: true}
	waitRouted(t, pub.node, class, "node-1's subscription at the publisher", want)

	ep, err := net.NewEndpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := multicast.NewReliable(multicast.NewMux(ep), "dace/ctrl", func(string, []byte) {}, fastCfg().Multicast)
	defer ctrl.Close()
	ctrl.SetMembers([]string{"node-0", "node-1", "evil"})
	evilSub := core.SubscriptionInfo{ID: "evil/sub-1", TypeName: class}
	for _, ad := range []*subscriptionAd{
		{Node: "node-1", Epoch: math.MaxInt64, Seq: 1},                           // forged: empties node-1
		{Node: "evil", Epoch: 1, Seq: 1, Subs: []core.SubscriptionInfo{evilSub}}, // its own
	} {
		payload, err := encodeAd(ad)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
	}
	// The link hands over evil's frames in order: once its own ad is in,
	// the forged one has been handled.
	want[[2]string{"evil", evilSub.ID}] = true
	routed := func() map[[2]string]bool {
		got := make(map[[2]string]bool)
		pub.node.routes.ForEachConforming(class, func(node string, info core.SubscriptionInfo) {
			got[[2]string{node, info.ID}] = true
		})
		return got
	}
	waitFor(t, 10*time.Second, "evil's own ad at the publisher", func() bool {
		return routed()[[2]string{"evil", evilSub.ID}]
	})
	if got := routed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("routed at the publisher after an ad forged for node-1: %v, want %v", got, want)
	}
	if got := pub.node.RoutingStats().AdsRejected; got != 1 {
		t.Errorf("AdsRejected = %d at the publisher, want 1 (the forged ad)", got)
	}
	// node-1's own ads still apply.
	want[[2]string{"node-1", subscribe()}] = true
	waitRouted(t, pub.node, class, "node-1's second subscription at the publisher", want)
}

// TestAdsArriveInSequenceOrder: a node stamps its ads on the control
// link in sequence order, and the link hands one sender's frames over
// in the order they were stamped. So under concurrent subscription
// changes a peer meets a node's ads one sequence after another, each
// delta on the base just before it, and drops none as stale.
func TestAdsArriveInSequenceOrder(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]
	obs := adsOnControl(t, net, nodes)
	class := obvent.TypeName(obvent.TypeOf[StockQuote]())

	const workers, rounds = 8, 50
	var (
		mu   sync.Mutex
		want = make(map[[2]string]bool) // each worker's last subscription stays active
		wg   sync.WaitGroup
		errs = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := filter.Path("GetPrice").Lt(filter.Float(float64(100 * (w + 1))))
			for i := 0; i < rounds; i++ {
				s, err := core.Subscribe(sub.engine, f, func(StockQuote) {})
				if err == nil {
					err = s.Activate()
				}
				if err == nil && i < rounds-1 {
					err = s.Deactivate()
				}
				if err != nil {
					errs <- err
					return
				}
				if i == rounds-1 {
					mu.Lock()
					want[[2]string{"node-1", s.ID()}] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitRouted(t, pub.node, class, "node-1's active set at the publisher", want)

	sub.node.mu.Lock()
	last := sub.node.adSeq
	sub.node.mu.Unlock()
	var ads []subscriptionAd
	waitFor(t, 10*time.Second, "node-1's last ad at the observer", func() bool {
		ads = obs.from("node-1")
		return slices.ContainsFunc(ads, func(ad subscriptionAd) bool { return ad.Seq == last })
	})
	if len(ads) < workers*(2*rounds-1) {
		t.Fatalf("the observer saw %d ads of node-1 for %d changes", len(ads), workers*(2*rounds-1))
	}
	for i, ad := range ads {
		if i > 0 && ad.Seq != ads[i-1].Seq+1 {
			t.Fatalf("node-1's ad %d arrived right after its ad %d", ad.Seq, ads[i-1].Seq)
		}
		if ad.Delta && ad.BaseSeq != ad.Seq-1 {
			t.Fatalf("delta %d is on base %d", ad.Seq, ad.BaseSeq)
		}
	}
	if st := pub.node.RoutingStats(); st.AdsStale != 0 {
		t.Errorf("the publisher dropped %d of node-1's ads as stale", st.AdsStale)
	}
}

// adObserver records decoded control-channel advertisements from one
// origin node.
type adObserver struct {
	mu  sync.Mutex
	ads []subscriptionAd
}

func (o *adObserver) onControl(_ string, payload []byte) {
	ad, err := decodeAd(payload)
	if err != nil {
		return
	}
	o.mu.Lock()
	o.ads = append(o.ads, *ad)
	o.mu.Unlock()
}

func (o *adObserver) from(node string) []subscriptionAd {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []subscriptionAd
	for _, ad := range o.ads {
		if ad.Node == node {
			out = append(out, ad)
		}
	}
	return out
}

// adsOnControl joins the control channel of nodes as a silent member
// and records every advertisement it receives.
func adsOnControl(t *testing.T, net *netsim.Network, nodes []*testNode) *adObserver {
	t.Helper()
	ep, err := net.NewEndpoint("observer")
	if err != nil {
		t.Fatal(err)
	}
	obs := &adObserver{}
	ctrl := multicast.NewReliable(multicast.NewMux(ep), "dace/ctrl", obs.onControl, fastCfg().Multicast)
	t.Cleanup(func() { _ = ctrl.Close() })
	peers := []string{"observer"}
	for _, n := range nodes {
		peers = append(peers, n.node.Addr())
	}
	ctrl.SetMembers(peers)
	for _, n := range nodes {
		n.node.SetPeers(peers)
	}
	return obs
}

// TestDeltaAdvertisementsOnTheWire pins the wire protocol: the first
// advertisement is a full snapshot, subsequent small changes
// travel as deltas (adds and removals by subscription ID), and the
// receiving node reconciles them to the same state a snapshot would
// give.
func TestDeltaAdvertisementsOnTheWire(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	// A silent observer on the control channel records the ad stream.
	obs := adsOnControl(t, net, nodes)

	var subsHeld []*core.Subscription
	for i := 0; i < 3; i++ {
		s, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(100*(i+1)))), func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
		subsHeld = append(subsHeld, s)
	}
	waitAds(t, pub.node, 3)
	if err := subsHeld[1].Deactivate(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "removal propagated", func() bool {
		return pub.node.RemoteSubscriptionCount() == 2
	})

	// Anti-entropy introductions interleave with the changes' ads, so wait
	// for the observer to hold one advertisement of each form, not for a
	// count of them.
	var sawSnapshot, sawDeltaAdd, sawDeltaRemove bool
	waitFor(t, 5*time.Second, "observer saw a snapshot, a delta with additions and one with removals", func() bool {
		for _, ad := range obs.from("node-1") {
			sawSnapshot = sawSnapshot || !ad.Delta
			sawDeltaAdd = sawDeltaAdd || (ad.Delta && len(ad.Subs) > 0)
			sawDeltaRemove = sawDeltaRemove || (ad.Delta && len(ad.Removed) > 0)
		}
		return sawSnapshot && sawDeltaAdd && sawDeltaRemove
	})
	for _, ad := range obs.from("node-1") {
		if ad.Delta && ad.BaseSeq != ad.Seq-1 {
			t.Errorf("delta seq %d has BaseSeq %d, want %d", ad.Seq, ad.BaseSeq, ad.Seq-1)
		}
	}

	// Reconciled state must match reality: re-activate and check the
	// publisher converges to 3 again.
	if err := subsHeld[1].Activate(); err != nil {
		t.Fatal(err)
	}
	waitAds(t, pub.node, 3)
}

// TestSnapshotForcedAfterDeltaRun pins the resynchronization bound:
// after snapshotEvery consecutive deltas the next advertisement is a
// full snapshot again.
func TestSnapshotForcedAfterDeltaRun(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	sub := nodes[1]

	obs := adsOnControl(t, net, nodes)

	// A stable base of subscriptions keeps each toggle's diff small, so
	// the toggles below travel as deltas.
	for i := 0; i < 4; i++ {
		base, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(50*(i+1)))), func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.Subscribe(sub.engine, nil, func(q StockQuote) {})
	if err != nil {
		t.Fatal(err)
	}
	// Each toggle is one advertisement; drive well past snapshotEvery.
	for i := 0; i < 2*snapshotEvery; i++ {
		if i%2 == 0 {
			_ = s.Activate()
		} else {
			_ = s.Deactivate()
		}
	}
	var deltas, snapshotsAfterFirst int
	waitFor(t, 10*time.Second, "delta run and forced snapshot observed", func() bool {
		deltas, snapshotsAfterFirst = 0, 0
		for _, ad := range obs.from("node-1") {
			if ad.Delta {
				deltas++
			} else if ad.Seq > 1 {
				snapshotsAfterFirst++
			}
		}
		return deltas >= snapshotEvery && snapshotsAfterFirst >= 2
	})
	// Delta chains must link consecutively, and no run of consecutive
	// deltas (by sequence) may exceed the resynchronization bound.
	ads := obs.from("node-1")
	sort.Slice(ads, func(i, j int) bool { return ads[i].Seq < ads[j].Seq })
	run, prevSeq := 0, uint64(0)
	for _, ad := range ads {
		if ad.Delta && ad.BaseSeq != ad.Seq-1 {
			t.Errorf("delta seq %d has BaseSeq %d, want %d", ad.Seq, ad.BaseSeq, ad.Seq-1)
		}
		contiguous := prevSeq == 0 || ad.Seq == prevSeq+1
		if ad.Delta && contiguous {
			run++
			if run > snapshotEvery {
				t.Errorf("run of %d consecutive deltas exceeds snapshotEvery=%d", run, snapshotEvery)
			}
		} else {
			run = 0
		}
		prevSeq = ad.Seq
	}
}

// TestMembershipDepartureDropsRoutingState pins the SetPeers hook: a
// node removed from the domain membership must vanish from the routing
// table — no more events addressed to it, no certified deliveries owed,
// no pinned memory.
func TestMembershipDepartureDropsRoutingState(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())
	pub, keep, gone := nodes[0], nodes[1], nodes[2]

	for _, sn := range []*testNode{keep, gone} {
		s, err := core.Subscribe(sn.engine, nil, func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	waitAds(t, pub.node, 2)

	// node-2 leaves the domain.
	pub.node.SetPeers([]string{"node-0", "node-1"})
	if got := pub.node.RemoteSubscriptionCount(); got != 1 {
		t.Errorf("RemoteSubscriptionCount after departure = %d, want 1", got)
	}
	if subs := pub.node.certSubscribersFor(obvent.TypeName(obvent.TypeOf[StockQuote]())); len(subs) != 1 {
		t.Errorf("cert subscribers after departure = %v, want only node-1's", subs)
	}
}

// timelyReading is a Timely class: TimelyBase's time.Time is a marshaled
// field, which the routing plan skips over on the wire.
type timelyReading struct {
	obvent.Base
	obvent.TimelyBase
	Sensor string
	Value  float64
	Seq    int
}

// TestTimelyClassRoutesByPartialDecode: a publisher-side filter on a
// Timely class is decided straight from the payload's bytes, on the
// publisher's routing plan and on the subscriber's dispatch table alike;
// no event is materialized to be matched.
func TestTimelyClassRoutesByPartialDecode(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.Placement = AtPublisher
	nodes := newDomain(t, net, 2, cfg)
	for _, n := range nodes {
		n.node.Registry().MustRegister(timelyReading{})
	}
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	s, err := core.Subscribe(sub.engine, filter.Path("Value").Gt(filter.Float(20)), func(timelyReading) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(); err != nil {
		t.Fatal(err)
	}
	waitAds(t, pub.node, 1)

	const events = 10 // Value 15..24: 21..24 pass
	for i := 0; i < events; i++ {
		r := timelyReading{TimelyBase: obvent.TimelyBase{TTL: time.Minute}, Sensor: "s-1", Value: float64(15 + i), Seq: i}
		if err := core.Publish(pub.engine, r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the passing readings", func() bool { return got.Load() == 4 })

	st := pub.node.RoutingStatsByClass()[obvent.TypeName(obvent.TypeOf[timelyReading]())]
	if st.PartialDecodes != events || st.WireMaterializations != 0 {
		t.Errorf("publisher routing: PartialDecodes = %d, WireMaterializations = %d; want %d and 0",
			st.PartialDecodes, st.WireMaterializations, events)
	}
	if es := sub.engine.Stats(); es.PartialDecodes == 0 || es.WireMaterializations != 0 {
		t.Errorf("subscriber dispatch: PartialDecodes = %d, WireMaterializations = %d; want > 0 and 0",
			es.PartialDecodes, es.WireMaterializations)
	}
}
