package dace

import (
	"reflect"
	"testing"

	"govents/internal/allocs"
	"govents/internal/codec"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// linkRecord is what node from seals for a link of o's class: the
// publisher's envelope, class and publisher left out.
func linkRecord(t *testing.T, from *Node, o obvent.Obvent) (*codec.Envelope, []byte) {
	t.Helper()
	env, err := from.cdc.EncodeFrom(from.Addr(), o)
	if err != nil {
		t.Fatal(err)
	}
	record, err := from.seal(env, true)
	if err != nil {
		t.Fatal(err)
	}
	return env, record
}

// TestReceivedEnvelopeAllocs: a data frame is decoded into its channel's
// scratch, so a link-form FIFO frame handed to a node costs the block
// its ID is a slice of and nothing else (it read 2.0 allocations while
// each frame got an envelope of its own). The sink sees the envelope as
// published, and the scratch is zero once the sink has returned.
func TestReceivedEnvelopeAllocs(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes, _ := bareNodes(t, net, 1, fastCfg(), nil)
	n := nodes[0]
	want, record := linkRecord(t, n, fifoTick{N: 3})
	var seen codec.Envelope
	n.SetSink(func(env *codec.Envelope) { seen = *env })
	var scratch codec.Envelope
	got := allocs.PerRun(200, func() { n.onData(want.Type, n.Addr(), record, &scratch) })
	t.Logf("%.2f allocations per frame", got)
	if got > 1.0 && !raceEnabled {
		t.Errorf("a received FIFO frame costs %.2f allocations, want <= 1.0", got)
	}
	if !sameFields(&seen, want) {
		t.Errorf("the sink saw\n%+v, want\n%+v", seen, want)
	}
	if !reflect.ValueOf(scratch).IsZero() {
		t.Errorf("the scratch holds %+v after the sink returned, want zero", scratch)
	}
}

// TestPlannerDecodesIntoScratch: the sequencer's planner decodes a
// stamped record into its pooled scratch, which goes back zeroed. One
// call costs the ID's block, the Send and its destinations (3
// allocations; it read 4 while the planner decoded into an envelope of
// its own).
func TestPlannerDecodesIntoScratch(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	class := className[orderedTick]()
	nodes, _ := bareNodes(t, net, 2, fastCfg(), []string{class})
	_, record := linkRecord(t, nodes[1], orderedTick{N: 4})
	plan := nodes[0].plannerFor(class)
	sends, ok := plan(record)
	if !ok || len(sends) != 1 || len(sends[0].Dests) != 2 {
		t.Fatalf("the planner routed %+v, %v; want one Send to both nodes", sends, ok)
	}
	got := allocs.PerRun(200, func() { plan(record) })
	t.Logf("%.2f allocations per planner call", got)
	if got > 3 && !raceEnabled {
		t.Errorf("a planner call costs %.2f allocations, want <= 3", got)
	}
	buf := nodes[0].destBuf.Get().(*destScratch)
	defer nodes[0].destBuf.Put(buf)
	if !reflect.ValueOf(buf.env).IsZero() {
		t.Errorf("a pooled scratch holds %+v, want zero", buf.env)
	}
}
