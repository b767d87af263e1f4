package dace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/transport"
)

// scribbleTransport hands the transport beneath it a copy of every
// frame and overwrites the copy as soon as Send has returned: a layer
// that kept a sent frame, or a slice of one (a record, a payload), past
// Send would deliver or resend the scribble. The caller's frame is left
// as it was, since a fan-out sends one frame to several destinations.
type scribbleTransport struct{ netsim.Transport }

func (s scribbleTransport) Send(to string, frame []byte) error {
	sent := bytes.Clone(frame)
	err := s.Transport.Send(to, sent)
	for i := range sent {
		sent[i] = 0xEE
	}
	return err
}

// TestSentFramesAreNotKeptAcrossDomains runs the all-protocol matrix
// between two domains whose endpoints overwrite every frame once it is
// sent, on a network that duplicates frames: every class's events reach
// the subscriber at the other domain, and the publisher's own, intact
// and once each, and nothing fails to decode.
func TestSentFramesAreNotKeptAcrossDomains(t *testing.T) {
	matrixAcrossDomains(t, netsim.Config{DupRate: 0.2, Seed: 5})
}

// TestStreamHandshakeUnderLossAndDuplication runs the same matrix on a
// network that also loses a fifth of all frames, the handshake's own
// known and unknown frames included, while every stream is spelled,
// confirmed and shortened: every event of a reliable class arrives once,
// no best-effort event arrives that was not published, and once the
// first burst is in, every class's frames go short, numbered with the
// sender's incarnation on every class but the best-effort one, whose
// stream has none. Fails in some runs
// (4 in 10 when tried) if a receiver answers only the first spelled
// frame of a stream with known: when that answer is lost, the stream
// stays spelled for good (TestMuxLostKnownIsAnsweredAgain in
// internal/multicast fails on it every time).
func TestStreamHandshakeUnderLossAndDuplication(t *testing.T) {
	matrixAcrossDomains(t, netsim.Config{LossRate: 0.2, DupRate: 0.2, Seed: 7})
}

// matrixAcrossDomains publishes two bursts of 20 events of each
// protocol's class from one of two domains on a network with the given
// faults, both domains subscribed to every class, and checks what each
// delivered, and that the publishing domain's second burst went short:
// the first confirmed every class's stream. A lossy network may lose
// best-effort events, which must then only not be invented.
func matrixAcrossDomains(t *testing.T, cfg netsim.Config) {
	classes := []matrixClass{
		matrixClassOf("be",
			func(n int) StockQuote { return StockQuote{StockObvent{Company: "T", Amount: n}} },
			func(q StockQuote) int { return q.Amount }),
		matrixClassOf("rel", func(n int) relPing { return relPing{N: n} }, func(p relPing) int { return p.N }),
		matrixClassOf("fifo", func(n int) fifoTick { return fifoTick{N: n} }, func(k fifoTick) int { return k.N }),
		matrixClassOf("causal",
			func(n int) causalMsg { return causalMsg{Text: fmt.Sprint(n)} },
			func(m causalMsg) int { var n int; fmt.Sscan(m.Text, &n); return n }),
		matrixClassOf("total", func(n int) orderedTick { return orderedTick{N: n} }, func(k orderedTick) int { return k.N }),
		matrixClassOf("cert", func(n int) certTrade { return certTrade{N: n} }, func(c certTrade) int { return c.N }),
	}
	net := netsim.New(cfg)
	defer net.Close()
	addrs := []string{"node-0", "node-1"}
	nodes := make([]*testNode, len(addrs))
	counter := &formCounter{streams: make(map[uint32]bool)}
	for _, c := range classes {
		counter.streams[streamKey(c.stream)] = true
	}
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		var tr netsim.Transport = scribbleTransport{ep}
		if i == 0 {
			counter.Transport = tr
			tr = counter
		}
		dn := NewNode(tr, reg, fastCfg())
		nodes[i] = &testNode{node: dn, engine: core.NewEngine(addr, dn, core.WithRegistry(reg))}
		defer nodes[i].engine.Close()
	}
	for _, n := range nodes {
		n.node.SetPeers(addrs)
	}

	var mu sync.Mutex
	got := map[string]int{} // "node/tag/n" -> deliveries
	for i, n := range nodes {
		for _, c := range classes {
			key := fmt.Sprintf("%s/%s/", addrs[i], c.tag)
			err := c.subscribe(n.engine, func(n int) {
				mu.Lock()
				got[key+fmt.Sprint(n)]++
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		waitAds(t, n.node, len(classes))
	}
	const events = 20
	lossy := cfg.LossRate > 0
	var want, published []string
	for burst := range 2 {
		counter.reset()
		from, to := burst*events, (burst+1)*events
		for n := from; n < to; n++ {
			for _, c := range classes {
				if err := c.publish(nodes[0].engine, n); err != nil {
					t.Fatalf("%s: publish %d: %v", c.tag, n, err)
				}
			}
		}
		for _, addr := range addrs {
			for _, c := range classes {
				for n := from; n < to; n++ {
					k := fmt.Sprintf("%s/%s/%d", addr, c.tag, n)
					published = append(published, k)
					if !lossy || c.tag != "be" || addr == addrs[0] {
						want = append(want, k)
					}
				}
			}
		}
		waitFor(t, 15*time.Second, "every event at both domains", func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, k := range want {
				if got[k] == 0 {
					return false
				}
			}
			return true
		})
	}
	if short, spelled := counter.count(); spelled != 0 || short == 0 {
		t.Errorf("node-0 sent its second burst's class frames %d short and %d spelled, want every one short", short, spelled)
	}
	for _, c := range classes {
		want := []byte{4} // short, numbered
		if c.tag == "be" {
			want = []byte{0}
		}
		if forms := counter.formsOf(streamKey(c.stream)); !slices.Equal(forms, want) {
			t.Errorf("%s: node-0's second burst went in the forms %v, want %v", c.tag, forms, want)
		}
	}
	mu.Lock()
	for k, n := range got {
		if n != 1 && !strings.Contains(k, "/be/") { // the unreliable class does not deduplicate
			t.Errorf("%s delivered %d times", k, n)
		}
		if !slices.Contains(published, k) {
			t.Errorf("%s delivered, and never published", k)
		}
	}
	if !lossy && len(got) != len(want) {
		t.Errorf("%d distinct deliveries, want %d", len(got), len(want))
	}
	mu.Unlock()
	if _, _, dropped, _ := net.Stats(); lossy && dropped == 0 {
		t.Error("the network lost no frame")
	}
	for i, n := range nodes {
		if st := n.engine.Stats(); st.DecodeErrors != 0 {
			t.Errorf("%s: DecodeErrors = %d, want 0", addrs[i], st.DecodeErrors)
		}
	}
}

// formCounter counts the frames its endpoint sends on the given
// streams, short and spelled, and notes each stream's forms by their
// first byte: 0 short, 1 spelled, 4 short and 5 spelled with the
// sender's incarnation.
type formCounter struct {
	netsim.Transport
	streams        map[uint32]bool // by key; read-only once sending starts
	short, spelled atomic.Int64

	mu    sync.Mutex
	forms map[uint32]map[byte]bool
}

func (f *formCounter) Send(to string, frame []byte) error {
	if key, ok := frameKey(frame); ok && f.streams[key] {
		if frame[0]&1 == 0 {
			f.short.Add(1)
		} else {
			f.spelled.Add(1)
		}
		f.mu.Lock()
		if f.forms == nil {
			f.forms = make(map[uint32]map[byte]bool)
		}
		if f.forms[key] == nil {
			f.forms[key] = make(map[byte]bool)
		}
		f.forms[key][frame[0]] = true
		f.mu.Unlock()
	}
	return f.Transport.Send(to, frame)
}

func (f *formCounter) reset() {
	f.short.Store(0)
	f.spelled.Store(0)
	f.mu.Lock()
	f.forms = make(map[uint32]map[byte]bool)
	f.mu.Unlock()
}

func (f *formCounter) count() (short, spelled int64) { return f.short.Load(), f.spelled.Load() }

// formsOf returns the forms a stream's frames took since the last reset.
func (f *formCounter) formsOf(key uint32) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []byte
	for form := range f.forms[key] {
		out = append(out, form)
	}
	slices.Sort(out)
	return out
}

// padFIFO and padCert are a FIFO and a certified class with a payload of
// any size.
type padFIFO struct {
	obvent.Base
	obvent.FIFOOrderBase
	Pad []byte
}

type padCert struct {
	obvent.Base
	obvent.CertifiedBase
	Pad []byte
}

// TestUnframeablePublicationIsDeliveredLocally: an event too long for
// any frame is still delivered to a subscriber at its own node, in a
// domain of one and in one where routing prunes the destinations to the
// publishing node, and nothing of its class is sent or owed.
func TestUnframeablePublicationIsDeliveredLocally(t *testing.T) {
	for _, size := range []int{1, 2} {
		t.Run(fmt.Sprintf("domain of %d", size), func(t *testing.T) {
			net := netsim.New(netsim.Config{})
			defer net.Close()
			cfg, clk := fakeCfg()
			fifoClass := className[padFIFO]()
			var peers []string
			var taps []*sendTap
			var nodes []*testNode
			for i := 0; i < size; i++ {
				addr := fmt.Sprintf("node-%d", i)
				ep, err := net.NewEndpoint(addr)
				if err != nil {
					t.Fatal(err)
				}
				tap := &sendTap{Transport: ep, streams: map[uint32]bool{streamKey(streamName("fifo", fifoClass)): true}}
				reg := obvent.NewRegistry()
				reg.MustRegister(padFIFO{})
				dn := NewNode(tap, reg, cfg)
				eng := core.NewEngine(addr, dn, core.WithRegistry(reg))
				defer eng.Close()
				peers, taps = append(peers, addr), append(taps, tap)
				nodes = append(nodes, &testNode{node: dn, engine: eng})
			}
			for _, n := range nodes {
				n.node.SetPeers(peers)
			}
			var got atomic.Int64
			s, err := core.Subscribe(nodes[0].engine, nil, func(o padFIFO) { got.Store(int64(len(o.Pad))) })
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Activate(); err != nil {
				t.Fatal(err)
			}
			huge := make([]byte, 17<<20)
			if err := core.Publish(nodes[0].engine, padFIFO{Pad: huge}); err != nil {
				t.Fatalf("publish of a 17 MiB event with a local subscriber only: %v", err)
			}
			waitFor(t, 5*time.Second, "the local delivery", func() bool { return got.Load() == int64(len(huge)) })
			clk.Advance(10 * cfg.Multicast.RetransmitInterval) // ticks, which would send anything owed
			if n := nodes[0].node.group("fifo", fifoClass).(*multicast.FIFO).Outstanding(); n != 0 {
				t.Errorf("the FIFO group owes %d broadcasts, want 0", n)
			}
			for i, tap := range taps {
				if n := tap.sent.Load(); n != 0 {
					t.Errorf("node-%d sent %d frames of the class, want none", i, n)
				}
			}
		})
	}
}

// sendTap counts the frames its endpoint sends on the given streams,
// by key.
type sendTap struct {
	netsim.Transport
	streams map[uint32]bool
	sent    atomic.Int64
}

func (s *sendTap) Send(to string, frame []byte) error {
	if key, ok := frameKey(frame); ok && s.streams[key] {
		s.sent.Add(1)
	}
	return s.Transport.Send(to, frame)
}

// frameKey returns the key of the stream a mux frame carries a record
// on, whether it spells the stream's name (1, or 5 with an epoch, then a
// two-byte length and the name) or is short (0, or 4 with a number,
// then the four-byte key). A handshake frame carries no record.
func frameKey(frame []byte) (uint32, bool) {
	switch {
	case len(frame) >= 3 && (frame[0] == 1 || frame[0] == 5):
		if n := int(binary.BigEndian.Uint16(frame[1:])); len(frame) >= 3+n {
			return streamKey(string(frame[3 : 3+n])), true
		}
	case len(frame) >= 5 && (frame[0] == 0 || frame[0] == 4):
		return binary.BigEndian.Uint32(frame[1:]), true
	}
	return 0, false
}

// streamKey is the key of a stream name: its FNV-1a hash.
func streamKey(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// TestUnframeablePublicationIsRefused publishes, over TCP to a
// subscribed domain, a FIFO and a certified event whose frame is beyond
// what any transport carries. Publish fails with ErrCannotPublish before
// the event takes a link sequence or an outbox entry: nothing is owed
// to anyone, and no frame of either class follows on any retransmission
// or redelivery tick.
func TestUnframeablePublicationIsRefused(t *testing.T) {
	cfg, clk := fakeCfg()
	open := func(tr netsim.Transport) *testNode {
		reg := obvent.NewRegistry()
		reg.MustRegister(padFIFO{})
		reg.MustRegister(padCert{})
		dn := NewNode(tr, reg, cfg)
		eng := core.NewEngine(tr.Addr(), dn, core.WithRegistry(reg))
		t.Cleanup(func() { _ = eng.Close() })
		return &testNode{node: dn, engine: eng}
	}
	pubTr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pubTr.Close()
	subTr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer subTr.Close()
	fifoClass, certClass := className[padFIFO](), className[padCert]()
	tap := &sendTap{Transport: pubTr, streams: map[uint32]bool{
		streamKey(streamName("fifo", fifoClass)): true, streamKey(streamName("cert", certClass)): true}}
	pub, sub := open(tap), open(subTr)
	peers := []string{pubTr.Addr(), subTr.Addr()}
	pub.node.SetPeers(peers)
	sub.node.SetPeers(peers)
	for _, subscribe := range []func() (*core.Subscription, error){
		func() (*core.Subscription, error) { return core.Subscribe(sub.engine, nil, func(padFIFO) {}) },
		func() (*core.Subscription, error) { return core.Subscribe(sub.engine, nil, func(padCert) {}) },
	} {
		s, err := subscribe()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	waitAds(t, pub.node, 2)

	huge := make([]byte, 17<<20)
	for _, o := range []obvent.Obvent{padFIFO{Pad: huge}, padCert{Pad: huge}} {
		if err := core.Publish(pub.engine, o); !errors.Is(err, core.ErrCannotPublish) || !errors.Is(err, netsim.ErrFrameTooLarge) {
			t.Errorf("publish of a 17 MiB %T: %v, want ErrCannotPublish for a frame too large", o, err)
		}
	}
	clk.Advance(20 * cfg.Multicast.RetransmitInterval) // ticks, which would resend anything owed
	if n := pub.node.group("fifo", fifoClass).(*multicast.FIFO).Outstanding(); n != 0 {
		t.Errorf("the FIFO group owes %d broadcasts, want 0", n)
	}
	if n := pub.node.CertifiedOutboxLen(certClass); n != 0 {
		t.Errorf("the outbox holds %d entries, want 0", n)
	}
	if n := tap.sent.Load(); n != 0 {
		t.Errorf("%d frames of the two classes were sent, want none", n)
	}
}
