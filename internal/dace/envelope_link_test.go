package dace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"govents/internal/codec"
	"govents/internal/core"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/telemetry"
	"govents/internal/vclock"
)

// envelopeSink keeps copies of the envelopes a node hands its engine, by
// the text of their names: the sink's envelope is the channel's scratch.
type envelopeSink struct {
	mu  sync.Mutex
	got map[string][]*codec.Envelope
}

func (s *envelopeSink) put(env *codec.Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.got == nil {
		s.got = make(map[string][]*codec.Envelope)
	}
	kept := *env
	kept.Payload = bytes.Clone(env.Payload) // the frame's, for the call only
	id := env.IDText()
	s.got[id] = append(s.got[id], &kept)
}

func (s *envelopeSink) byID(id string) []*codec.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*codec.Envelope(nil), s.got[id]...)
}

// bareNodes builds count connected nodes with no engine above them: each
// hands its envelopes to a sink and subscribes, unfiltered, to every
// class of classes.
func bareNodes(t *testing.T, net *netsim.Network, count int, cfg Config, classes []string) ([]*Node, []*envelopeSink) {
	t.Helper()
	nodes := make([]*Node, count)
	sinks := make([]*envelopeSink, count)
	addrs := make([]string, count)
	for i := range nodes {
		addrs[i] = fmt.Sprintf("node-%d", i)
		ep, err := net.NewEndpoint(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		nodes[i], sinks[i] = NewNode(ep, reg, cfg), &envelopeSink{}
		nodes[i].SetSink(sinks[i].put)
		t.Cleanup(func() { _ = nodes[i].Close() })
	}
	for i, n := range nodes {
		n.SetPeers(addrs)
		var infos []core.SubscriptionInfo
		for k, class := range classes {
			infos = append(infos, core.SubscriptionInfo{
				ID: fmt.Sprintf("%s/sub-%d", addrs[i], k), TypeName: class, Certified: class == className[certTrade]()})
		}
		if err := n.SubscriptionChanged(infos); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		waitAds(t, n, (count-1)*len(classes))
	}
	return nodes, sinks
}

func className[T obvent.Obvent]() string { return obvent.TypeName(obvent.TypeOf[T]()) }

// TestHeaderFidelityEveryClass: what a link leaves out of an envelope's
// header, the receiving end puts back. For every protocol and both
// placements, an envelope published at node-1 reaches the sinks of
// node-0 (the total-order sequencer, so that class's frame is relayed),
// of node-1 itself and of node-2 equal to the published one field for
// field, whether its publisher is the publishing node (left out of the
// record) or somebody else (carried): the name PublishEnvelope gave it
// included, whether the link's binding names its incarnation (rel, fifo,
// causal), the record carries it (be, and total, relayed by the
// sequencer), or the stored record spells it (cert, whose ID text the
// receiver has besides). No receiver has a group for the class before
// the first frame: each is made by onUnknownStream.
func TestHeaderFidelityEveryClass(t *testing.T) {
	type class struct {
		tag  string
		name string
		o    obvent.Obvent
	}
	for _, placement := range []Placement{AtSubscriber, AtPublisher} {
		classes := []class{
			{"rel", className[relPing](), relPing{N: 1}},
			{"fifo", className[fifoTick](), fifoTick{N: 2}},
			{"causal", className[causalMsg](), causalMsg{Text: "three"}},
			{"total", className[orderedTick](), orderedTick{N: 4}},
			{"cert", className[certTrade](), certTrade{N: 5}},
			{"be", className[StockQuote](), StockQuote{StockObvent{Company: "T", Amount: 6}}},
		}
		t.Run(fmt.Sprintf("placement=%d/be", placement), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg := fastCfg()
			cfg.Placement = placement
			var names []string
			for _, c := range classes {
				names = append(names, c.name)
			}
			nodes, sinks := bareNodes(t, net, 3, cfg, names)
			pub := nodes[1]
			for _, c := range classes {
				for _, publisher := range []string{pub.Addr(), "somebody-else"} {
					env, err := pub.cdc.Encode(c.o)
					if err != nil {
						t.Fatal(err)
					}
					env.Publisher = publisher
					env.VC = vclock.VC{pub.Addr(): 3, "node-9": 1}
					if proto := pub.protoFor(env); proto != c.tag {
						t.Fatalf("%s resolves to protocol %q, want %q", c.name, proto, c.tag)
					}
					if publisher == pub.Addr() {
						for i, n := range nodes {
							n.mu.Lock()
							_, made := n.groups[groupKey{c.tag, c.name}]
							n.mu.Unlock()
							if made && i != 1 {
								t.Fatalf("%s: node-%d has the class's group before any frame of it", c.tag, i)
							}
						}
					}
					want := *env
					if err := pub.PublishEnvelope(env); err != nil {
						t.Fatalf("%s: publish: %v", c.tag, err)
					}
					if want.Name = env.Name; env.Name.IsZero() || !reflect.DeepEqual(*env, want) {
						t.Errorf("%s: publishing wrote to the envelope beside naming it: %+v, was %+v", c.tag, *env, want)
					}
					for i, sink := range sinks {
						var got []*codec.Envelope
						waitFor(t, 10*time.Second, fmt.Sprintf("%s envelope of %s at node-%d", c.tag, publisher, i), func() bool {
							got = sink.byID(env.IDText())
							return len(got) > 0
						})
						if !sameFields(got[0], &want) {
							t.Errorf("%s, publisher %s, at node-%d:\n got %+v\nwant %+v", c.tag, publisher, i, *got[0], want)
						}
					}
				}
			}
		})
	}
}

// sameFields reports whether two envelopes agree field for field on what
// travels: every exported field. The unexported claim on the buffer
// Encode wrote the payload into does not travel.
func sameFields(a, b *codec.Envelope) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// frameTap keeps every frame an endpoint sends.
type frameTap struct {
	netsim.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (f *frameTap) Send(to string, frame []byte) error {
	f.mu.Lock()
	f.frames = append(f.frames, append([]byte(nil), frame...))
	f.mu.Unlock()
	return f.Transport.Send(to, frame)
}

// TestLinkFrameNamesItsClassOnce looks at the bytes: a data frame of a
// non-certified class spells the class once, in the stream prefix, the
// publisher's address not at all (the transport's hello said it) and
// the event's name not as text; a certified frame carries the record its
// outbox and the subscriber's inbox keep, so it spells the class and the
// address again, and the name's text once, in that record.
func TestLinkFrameNamesItsClassOnce(t *testing.T) {
	for _, tc := range []struct {
		tag                    string
		o                      obvent.Obvent
		class, publisher, name int
	}{
		{"fifo", fifoTick{N: 1}, 1, 0, 0},
		{"be", StockQuote{StockObvent{Company: "T"}}, 1, 0, 0},
		{"cert", certTrade{N: 1}, 2, 1, 1},
	} {
		t.Run(tc.tag, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			ep, err := net.NewEndpoint("publisher-addr")
			if err != nil {
				t.Fatal(err)
			}
			reg := obvent.NewRegistry()
			registerAll(reg)
			tap := &frameTap{Transport: ep}
			cfg := fastCfg()
			cfg.NoOrderedPruning = true // one frame to each peer, subscribed or not
			pub := NewNode(tap, reg, cfg)
			defer pub.Close()
			pub.SetPeers([]string{"publisher-addr", "peer"})

			env, err := pub.cdc.Encode(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			env.Publisher = pub.Addr()
			// Unordered and certified classes address subscribers only.
			pub.applyAd(&subscriptionAd{Node: "peer", Seq: 1, Subs: []core.SubscriptionInfo{
				{ID: "peer/sub-1", TypeName: env.Type, Certified: tc.tag == "cert"}}})
			if err := pub.PublishEnvelope(env); err != nil {
				t.Fatal(err)
			}
			stream := streamName(tc.tag, env.Type)
			var frame []byte
			tap.mu.Lock()
			for _, f := range tap.frames {
				if bytes.Contains(f, []byte(stream)) && bytes.Contains(f, env.Payload) {
					frame = f
				}
			}
			tap.mu.Unlock()
			if frame == nil {
				t.Fatalf("no data frame on %s among %d frames sent", stream, len(tap.frames))
			}
			if got := bytes.Count(frame, []byte(env.Type)); got != tc.class {
				t.Errorf("the frame spells the class %d times, want %d: %q", got, tc.class, frame)
			}
			if got := bytes.Count(frame, []byte(pub.Addr())); got != tc.publisher {
				t.Errorf("the frame spells the publisher's address %d times, want %d: %q", got, tc.publisher, frame)
			}
			if got := bytes.Count(frame, []byte(env.Name.String())); got != tc.name {
				t.Errorf("the frame spells the event's name %d times, want %d: %q", got, tc.name, frame)
			}
		})
	}
}

// parentEnvelope is what testdata/parent-pr21/mkfixture_test.go.txt
// published at the parent commit.
func parentEnvelope(t *testing.T, cdc *codec.Codec) *codec.Envelope {
	t.Helper()
	env, err := cdc.Encode(fifoTick{N: 21})
	if err != nil {
		t.Fatal(err)
	}
	env.ID = "0123456789abcdef0123456789abcdef"
	env.Name, _ = codec.ParseName(env.ID)
	env.Publisher = "node-0"
	env.PubNanos = 1790000000123456789
	return env
}

// TestParentFrameOpens: testdata/parent-pr21/fifo-data.bin is the record
// of one FIFO envelope as the commit before the link form put it on the
// class's channel, class and publisher spelled out. The break is one
// way: this build reads that record to the same envelope, taking both
// from the record and neither from the link; and what this build seals
// for a link is that record less every field the link form leaves out.
// The parent set the envelope's per-publisher sequence number to 42, a
// field that is gone: this build reads it and drops it, and writes 0 in
// its place. The parent's random ID reads as the name whose text it is.
func TestParentFrameOpens(t *testing.T) {
	record, err := os.ReadFile("testdata/parent-pr21/fifo-data.bin")
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes, _ := bareNodes(t, net, 1, fastCfg(), nil)
	want := parentEnvelope(t, nodes[0].cdc)

	var got codec.Envelope
	if err := openInto(&got, "some.other.Class", "some-other-node", 7, record); err != nil {
		t.Fatal(err)
	}
	opened := *want
	opened.ID = "" // the ID is a name's text: it opens as the name, with no text
	if !sameFields(&got, &opened) {
		t.Errorf("the parent's record opens to\n%+v, want\n%+v", got, opened)
	}

	full, err := nodes[0].seal(want, "cert")
	if err != nil {
		t.Fatal(err)
	}
	seqAt := 3 + 1 + len(want.ID) + 1 + len(want.Type) + 1 + len(want.Publisher)
	if record[seqAt] != 42 {
		t.Fatalf("the parent's record holds %d where its sequence number 42 was", record[seqAt])
	}
	stored := bytes.Clone(record)
	stored[seqAt] = 0
	if !bytes.Equal(full, stored) {
		t.Errorf("the full record moved:\n got %x\nwant %x", full, stored)
	}
	link, err := nodes[0].seal(want, "fifo")
	if err != nil {
		t.Fatal(err)
	}
	// The link leaves out the two strings with their length bytes, the
	// two retired sequence numbers, the Priority and TTL the event does
	// not have, and the payload's length byte, and carries of the name's
	// 32 hex characters and their length byte only the count, as a
	// uvarint: a FIFO link's binding names the incarnation.
	if len(want.Payload) >= 128 || want.HasPriority || want.TTL != 0 {
		t.Fatalf("the fixture's envelope is not the one the arithmetic below describes: %+v", want)
	}
	count := len(binary.AppendUvarint(nil, want.Name.N))
	if saved := len(want.Type) + 1 + len(want.Publisher) + 1 + 2 + 1 + 1 + 1 + 1 + 32 - count; len(link) != len(record)-saved {
		t.Errorf("the link record has %d bytes, want the full one's %d less %d", len(link), len(record), saved)
	}
	onLink := *want
	onLink.ID = ""
	var back, routed codec.Envelope
	if err := openInto(&back, want.Type, "node-0", want.Name.Inc, link); err != nil || !sameFields(&back, &onLink) {
		t.Errorf("the link record opens to\n%+v, %v; want\n%+v", back, err, onLink)
	}
	// The sequencer's planner knows the class and not the publisher.
	if err := openInto(&routed, want.Type, "", 0, link); err != nil || routed.Type != want.Type || routed.Publisher != "" {
		t.Errorf("opened with no origin: %+v, %v", routed, err)
	}
}

// TestUndecodableFrameIsLogged feeds a class's group one frame that does
// not decode: the drop is counted, traced under the class and logged with
// the class and the origin under their own keys. One frame is garbage;
// the other is the stored record of a Timely class as the build before
// gob was retired wrote it (testdata/parent-pr25 at the repository root),
// which names payload encoding 0.
func TestUndecodableFrameIsLogged(t *testing.T) {
	parentGob, err := os.ReadFile("../../testdata/parent-pr25/timely.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, err string
		frame     []byte
	}{
		{"garbage", "unknown envelope format", []byte("not an envelope record")},
		{"parent gob record", "payload encoding 0", parentGob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			ep, err := net.NewEndpoint("node-0")
			if err != nil {
				t.Fatal(err)
			}
			reg := obvent.NewRegistry()
			registerAll(reg)
			rec := &warnRecorder{msg: "dace: dropping undecodable data frame"}
			cfg := fastCfg()
			cfg.Logger = slog.New(rec)
			cfg.Telemetry = telemetry.NewPlane()
			var traced []telemetry.TraceEvent
			cfg.Telemetry.SetTraceHook(func(ev telemetry.TraceEvent) { traced = append(traced, ev) }, 1)
			n := NewNode(ep, reg, cfg)
			defer n.Close()
			delivered := 0
			n.SetSink(func(*codec.Envelope) { delivered++ })

			// A peer's group on the class's channel sends one well-formed
			// frame whose payload does not decode as an envelope.
			class := className[StockQuote]()
			peer, err := net.NewEndpoint("node-7")
			if err != nil {
				t.Fatal(err)
			}
			be := multicast.NewBestEffort(multicast.NewMux(peer), streamName("be", class), func(string, []byte) {})
			defer be.Close()
			if err := be.BroadcastTo([]string{"node-0"}, tc.frame); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "the drop", func() bool { return n.DecodeErrors() == 1 })
			_ = n.Close() // waits out a delivery in progress: the hook and the sink are done with

			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.got) != 1 {
				t.Fatalf("got %d warnings %v, want 1", len(rec.got), rec.got)
			}
			w := rec.got[0]
			if w["class"] != class || w["origin"] != "node-7" || w["bytes"] != int64(len(tc.frame)) || w["err"] == nil {
				t.Errorf("warning attrs = %v, want class=%s origin=node-7 bytes=%d and an err", w, class, len(tc.frame))
			}
			if e, ok := w["err"].(error); !ok || !strings.Contains(e.Error(), tc.err) {
				t.Errorf("warning err = %v, want one mentioning %q", w["err"], tc.err)
			}
			if len(traced) != 1 || traced[0].Class != class || traced[0].Outcome != telemetry.ReasonDecodeError.String() {
				t.Errorf("trace records = %+v, want one %s under class %s", traced, telemetry.ReasonDecodeError, class)
			}
			if delivered != 0 {
				t.Errorf("%d envelopes reached the sink", delivered)
			}
		})
	}
}
