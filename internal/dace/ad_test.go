package dace

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// sampleAds covers both kinds and every optional field.
func sampleAds(t testing.TB) []*subscriptionAd {
	t.Helper()
	f, err := filter.MarshalCanonical(filter.And(
		filter.Path("GetPrice").Lt(filter.Float(100)),
		filter.Path("GetCompany").Contains(filter.Str("Telco")),
	))
	if err != nil {
		t.Fatal(err)
	}
	subs := []core.SubscriptionInfo{
		{ID: "n/sub-1", TypeName: "pkg.Quote", Filter: f},
		{ID: "n/sub-2", TypeName: "pkg.Trade", DurableID: "desk", Certified: true},
		{ID: "n/sub-3", TypeName: "pkg.Quote"},
	}
	return []*subscriptionAd{
		{Node: "n", Seq: 1},
		{Node: "n", Seq: 1, Epoch: -5},
		{Node: "node-1", Seq: 300, Epoch: 1759485600123456789, Subs: subs},
		{Node: "n", Seq: 9, Delta: true, BaseSeq: 8},
		{Node: "n", Seq: 9, Delta: true, BaseSeq: 2, Subs: subs[:1], Removed: []string{"n/sub-7", "n/sub-8"}},
	}
}

func TestAdRoundTrip(t *testing.T) {
	for _, ad := range sampleAds(t) {
		data, err := encodeAd(ad)
		if err != nil {
			t.Fatalf("%+v: %v", ad, err)
		}
		back, err := decodeAd(data)
		if err != nil {
			t.Fatalf("%+v: %v", ad, err)
		}
		if !reflect.DeepEqual(ad, back) {
			t.Errorf("round trip changed the ad:\n got %+v\nwant %+v", back, ad)
		}
	}
}

func TestEncodeAdRefusesWhatDecodeWould(t *testing.T) {
	long := string(make([]byte, 1<<16))
	for name, ad := range map[string]*subscriptionAd{
		"no sequence":       {Node: "n"},
		"base not below":    {Node: "n", Seq: 3, Delta: true, BaseSeq: 3},
		"empty node":        {Seq: 1},
		"empty sub ID":      {Node: "n", Seq: 1, Subs: []core.SubscriptionInfo{{TypeName: "T"}}},
		"long type name":    {Node: "n", Seq: 1, Subs: []core.SubscriptionInfo{{ID: "a", TypeName: long}}},
		"empty removed ID":  {Node: "n", Seq: 2, Delta: true, BaseSeq: 1, Removed: []string{""}},
		"beyond maxAdBytes": {Node: "n", Seq: 1, Subs: []core.SubscriptionInfo{{ID: "a", TypeName: "T", Filter: make([]byte, maxAdBytes)}}},
	} {
		if _, err := encodeAd(ad); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func TestDecodeAdRejects(t *testing.T) {
	valid, err := encodeAd(&subscriptionAd{Node: "n", Seq: 2, Delta: true, BaseSeq: 1,
		Subs: []core.SubscriptionInfo{{ID: "a", TypeName: "T"}}, Removed: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	// valid is: kind, Node (1+1), Epoch, Seq, base distance, count, then
	// flags, ID (1+1), TypeName (1+1), then count, removed ID (1+1).
	const kindAt, seqAt, subsAt, flagsAt, idLenAt = 0, 4, 6, 7, 8
	patch := func(at int, b ...byte) []byte {
		out := append([]byte(nil), valid[:at]...)
		out = append(out, b...)
		return append(out, valid[at+1:]...)
	}
	for name, data := range map[string][]byte{
		"empty":                       nil,
		"unknown kind":                patch(kindAt, 0x01),
		"trailing byte":               append(append([]byte(nil), valid...), 0),
		"truncated":                   valid[:len(valid)-1],
		"zero sequence":               patch(seqAt, 0),
		"overlong sequence":           patch(seqAt, 0x82, 0x00),
		"base distance beyond Seq":    patch(seqAt+1, 3),
		"count larger than the frame": patch(subsAt, 0xFF, 0xFF, 0x03),
		"unknown subscription flag":   patch(flagsAt, 0x08),
		"flagged filter absent":       patch(flagsAt, subFilter),
		"empty ID":                    patch(idLenAt, 0),
	} {
		if ad, err := decodeAd(data); err == nil {
			t.Errorf("%s: accepted: %+v", name, ad)
		}
	}
}

// TestDecodeAdAllocatesWithinItsInput: a few bytes that claim a billion
// subscriptions, or removals, are refused before anything is allocated
// for them.
func TestDecodeAdAllocatesWithinItsInput(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	snapshot := append([]byte{adSnapshot, 1, 'n', 0, 1}, huge...)
	delta := append([]byte{adDelta, 1, 'n', 0, 2, 1, 0}, huge...)
	for _, data := range [][]byte{snapshot, delta} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeAd(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("% x: accepted", data)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("% x: %d bytes allocated refusing %d bytes of input", data, got, len(data))
		}
	}
}

// FuzzAdDecode feeds the peer-facing decoder raw bytes: it must never
// panic, what it accepts is bounded by what it was handed, and an
// accepted record has one encoding, its own.
func FuzzAdDecode(f *testing.F) {
	for _, ad := range sampleAds(f) {
		data, err := encodeAd(ad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	if gobbed, err := os.ReadFile("testdata/parent-pr20/ad.gob"); err == nil {
		f.Add(gobbed)
	}
	f.Add([]byte("not an ad record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ad, err := decodeAd(data)
		if err != nil {
			return
		}
		held := len(ad.Node)
		for _, s := range ad.Subs {
			held += 1 + len(s.ID) + len(s.TypeName) + len(s.Filter) + len(s.DurableID)
		}
		for _, id := range ad.Removed {
			held += len(id)
		}
		if held > len(data) || 5*len(ad.Subs)+2*len(ad.Removed) > len(data) {
			t.Fatalf("decoded %d variable bytes, %d subscriptions and %d removals from %d input bytes",
				held, len(ad.Subs), len(ad.Removed), len(data))
		}
		again, err := encodeAd(ad)
		if err != nil {
			t.Fatalf("re-encode of an accepted ad: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("an accepted record is not its ad's encoding:\n got % x\nwant % x", data, again)
		}
		back, err := decodeAd(again)
		if err != nil || !reflect.DeepEqual(ad, back) {
			t.Fatalf("decode of the re-encoded ad: %v\n got %+v\nwant %+v", err, back, ad)
		}
	})
}

// TestGobAdOfTheParentIsRefused: testdata/parent-pr20/ad.gob is a
// snapshot of two subscriptions as the commit before this record
// broadcast it (written by mkfixture_test.go.txt beside it, there). The
// format moved with no negotiation, so this node must refuse it whole:
// counted, nothing applied, no panic.
func TestGobAdOfTheParentIsRefused(t *testing.T) {
	gobbed, err := os.ReadFile("testdata/parent-pr20/ad.gob")
	if err != nil {
		t.Fatal(err)
	}
	if ad, err := decodeAd(gobbed); err == nil {
		t.Fatalf("decoded a gob stream: %+v", ad)
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	n := newDomain(t, net, 1, fastCfg())[0].node
	before := n.RoutingStats()
	n.onControl("node-9", gobbed)
	before.AdsRejected++
	if st := n.RoutingStats(); st != before {
		t.Errorf("stats after a gob ad = %+v, want one more rejected and nothing else moved: %+v", st, before)
	}
	if got := n.RemoteSubscriptionCount(); got != 0 {
		t.Errorf("%d remote subscriptions after a refused ad", got)
	}
}

// TestCloseSendsOneFinalAd: closing an engine deactivates every
// subscription and reports them together, so the node sends one final
// advertisement — not one per subscription, each after a rebuild of the
// dispatch table.
func TestCloseSendsOneFinalAd(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]
	obs := adsOnControl(t, net, nodes)

	const subs = 1000
	for i := 0; i < subs; i++ {
		s, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(i%10))), func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	waitAds(t, pub.node, subs)
	sub.node.mu.Lock()
	last := sub.node.adSeq
	sub.node.mu.Unlock()

	if err := sub.engine.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the final ad at the publisher", func() bool {
		return pub.node.RemoteSubscriptionCount() == 0
	})
	final := 0
	waitFor(t, 10*time.Second, "the final ad at the observer", func() bool {
		net.Settle()
		final = 0
		for _, ad := range obs.from("node-1") {
			if ad.Seq > last {
				final++
			}
		}
		return final > 0
	})
	if final > 2 {
		t.Errorf("%d control broadcasts to close a domain of %d subscriptions, want 1 (at most 2)", final, subs)
	}
}

// TestSubscribingParsesWhatChanged is the counted scaling test of the
// control plane: N sequential filtered subscriptions cost N filter
// parses at the subscribing node and N at each peer — the deltas' — and
// the full snapshot forced after every snapshotEvery deltas parses
// nothing, because every record it repeats is already held.
func TestSubscribingParsesWhatChanged(t *testing.T) {
	for _, n := range []int{64, 512} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg := fastCfg()
			cfg.Placement = AtPublisher
			nodes := newDomain(t, net, 3, cfg)
			obs := adsOnControl(t, net, nodes)
			sub := nodes[1]
			for i := 0; i < n; i++ {
				s, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(i%10))), func(StockQuote) {})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Activate(); err != nil {
					t.Fatal(err)
				}
			}
			class := obvent.TypeName(obvent.TypeOf[StockQuote]())
			want := make(map[[2]string]bool, n)
			for i := 1; i <= n; i++ {
				want[[2]string{"node-1", fmt.Sprintf("node-1/sub-%d", i)}] = true
			}
			for _, tn := range nodes {
				waitRouted(t, tn.node, class, "every subscription routed at "+tn.node.Addr(), want)
				if got := tn.node.RoutingStats().FiltersParsed; got != uint64(n) {
					t.Errorf("%s parsed %d filters for %d sequential subscriptions, want %d",
						tn.node.Addr(), got, n, n)
				}
			}
			// Every ad has been sent; once the network settles, the
			// observer's link has delivered each one it received.
			net.Settle()
			snapshots := 0
			for _, ad := range obs.from("node-1") {
				if !ad.Delta && len(ad.Subs) > 1 {
					snapshots++
				}
			}
			if snapshots < n/(snapshotEvery+1)-1 {
				t.Errorf("%d forced snapshots on the wire for %d subscriptions: the run did not exercise them", snapshots, n)
			}
		})
	}
}
