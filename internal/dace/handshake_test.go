package dace

import (
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// TestSequencerCreatesGroupFromSpelledRequest: the total-order
// sequencer (node-0, the smallest address) has no subscription to the
// class and no group for it. node-1's first request reaches it spelled,
// so its multiplexer hands the frame, with the stream's name, to
// onUnknownStream, which creates the group; the sequencer stamps the
// request and node-2's subscription gets it. The sequencer confirms the
// key, and node-1's later requests are short. Fails if a spelled frame
// on a stream with no handler is not handed to the fallback by name (no
// delivery), or if a frame the fallback took in draws no known frame
// (the next request is spelled again).
func TestSequencerCreatesGroupFromSpelledRequest(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	class := className[orderedTick]()
	addrs := []string{"node-0", "node-1", "node-2"}
	nodes := make([]*Node, len(addrs))
	sinks := make([]*envelopeSink, len(addrs))
	var tap *frameTap
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		var tr netsim.Transport = ep
		if i == 1 {
			tap = &frameTap{Transport: ep}
			tr = tap
		}
		reg := obvent.NewRegistry()
		registerAll(reg)
		nodes[i], sinks[i] = NewNode(tr, reg, fastCfg()), &envelopeSink{}
		nodes[i].SetSink(sinks[i].put)
		t.Cleanup(func() { _ = nodes[i].Close() })
	}
	for _, n := range nodes {
		n.SetPeers(addrs)
	}
	if err := nodes[2].SubscriptionChanged([]core.SubscriptionInfo{{ID: "node-2/sub", TypeName: class}}); err != nil {
		t.Fatal(err)
	}
	waitAds(t, nodes[0], 1)
	waitAds(t, nodes[1], 1)
	hasGroup := func() bool {
		nodes[0].mu.Lock()
		defer nodes[0].mu.Unlock()
		_, ok := nodes[0].groups[groupKey{"total", class}]
		return ok
	}
	if hasGroup() {
		t.Fatal("the sequencer has the class's group before any frame of it")
	}
	for k := range 2 {
		env, err := nodes[1].cdc.EncodeFrom(nodes[1].Addr(), orderedTick{N: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].PublishEnvelope(env); err != nil {
			t.Fatal(err)
		}
		id := env.IDText()
		waitFor(t, 5*time.Second, "the stamped event at node-2", func() bool { return len(sinks[2].byID(id)) > 0 })
		net.Settle()
	}
	if !hasGroup() {
		t.Error("the sequencer stamped without a group for the class")
	}
	request := streamKey(streamName("total", class) + "!ord")
	var forms []byte
	tap.mu.Lock()
	for _, f := range tap.frames {
		if key, ok := frameKey(f); ok && key == request {
			forms = append(forms, f[0])
		}
	}
	tap.mu.Unlock()
	if len(forms) < 2 || forms[0] != 5 || forms[len(forms)-1] != 4 {
		t.Errorf("node-1's request frames had forms %v (5 spelled, 4 short, both numbered), want the first spelled and the last short", forms)
	}
}

// wireTick has the shape of the benchmark's FIFO event: two int64s, two
// int32s and four float64s.
type wireTick struct {
	obvent.Base
	obvent.FIFOOrderBase
	Seq, SentNs int64
	Phase, Key  int32
	A, B, C, D  float64
}

// TestFIFOFrameBytesAfterHandshake pins, in bytes counted on a loss-free
// network and not timed, what a FIFO event costs on the wire once the
// stream's key and the sender's incarnation are known: a data frame is
// at most 30 bytes more than the event's payload (the short stream
// prefix with the incarnation's number, the link record, the link
// envelope with its name's count and no zero field), and an
// acknowledgement frame at most 12 bytes. While the envelope carried a
// random 16-byte ID, the frame was 40 bytes over the payload; when the
// link record carried the sender's epoch and the envelope every field,
// zero or not, 54 bytes and the acknowledgement 16 bytes; before streams
// had keys, 96 bytes and the class name's length over the payload. The retransmission timer is an hour, so the
// acknowledgements are exactly the ones the link's batching sends: one
// per 16 data frames here.
func TestFIFOFrameBytesAfterHandshake(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := Config{Multicast: multicast.Options{RetransmitInterval: time.Hour}}
	addrs := []string{"node-0", "node-1"}
	nodes := make([]*testNode, len(addrs))
	for i, addr := range addrs {
		ep, err := net.NewEndpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obvent.NewRegistry()
		reg.MustRegister(wireTick{})
		dn := NewNode(ep, reg, cfg)
		nodes[i] = &testNode{node: dn, engine: core.NewEngine(addr, dn, core.WithRegistry(reg))}
		defer nodes[i].engine.Close()
	}
	for _, n := range nodes {
		n.node.SetPeers(addrs)
	}
	var got atomic.Int64
	sub, err := core.Subscribe(nodes[1].engine, nil, func(wireTick) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Activate(); err != nil {
		t.Fatal(err)
	}
	waitAds(t, nodes[0].node, 1)
	event := func(i int) wireTick {
		return wireTick{Seq: int64(i), SentNs: 1_790_000_000_123_456_789, Phase: 1, Key: 42, A: 1.5, B: 2.5, C: 3.5, D: 4.5}
	}
	env, err := nodes[0].node.cdc.Encode(event(0))
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(len(env.Payload))
	published := 0
	publish := func(n int) (frames, bytes int64) {
		t.Helper()
		net.ResetStats()
		for range n {
			if err := core.Publish(nodes[0].engine, event(published)); err != nil {
				t.Fatal(err)
			}
			published++
		}
		waitFor(t, 5*time.Second, "the deliveries", func() bool { return got.Load() == int64(published) })
		net.Settle()
		frames, bytes, _, _ = net.Stats()
		return frames, bytes
	}

	// The handshake: the first frame spells the stream, draws the
	// receiver's known frame and an acknowledgement at once.
	publish(1)
	// The next 15 frames go short, and are not acknowledged yet.
	const batch = 15
	frames, bytes := publish(batch)
	if frames != batch {
		t.Fatalf("%d events sent %d frames, want %d data frames and nothing else", batch, frames, batch)
	}
	data := bytes / batch
	if bytes%batch != 0 || data-payload > 30 {
		t.Errorf("a data frame is %d bytes (%d over %d), for a %d-byte payload: %d bytes over it, want at most 30",
			data, bytes, batch, payload, data-payload)
	}
	// The 16th unacknowledged frame draws an acknowledgement.
	frames, bytes = publish(1)
	if frames != 2 {
		t.Fatalf("the 16th event sent %d frames, want its data frame and an acknowledgement", frames)
	}
	if ack := bytes - data; ack > 12 {
		t.Errorf("an acknowledgement frame is %d bytes, want at most 12", ack)
	}
	t.Logf("payload %d bytes, data frame %d bytes, acknowledgement %d bytes", payload, data, bytes-data)
}
