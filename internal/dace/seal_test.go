package dace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"govents/internal/allocs"
	"govents/internal/codec"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// priorityAlert is a prioritary class: its envelope carries a priority.
type priorityAlert struct {
	obvent.Base
	obvent.PriorityBase
	Text string
}

// sealNode is one node, alone, whose codec knows every test class.
func sealNode(t *testing.T) *Node {
	t.Helper()
	net := netsim.New(netsim.Config{})
	t.Cleanup(func() { _ = net.Close() })
	ep, err := net.NewEndpoint("node-0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obvent.NewRegistry()
	registerAll(reg)
	reg.MustRegister(timelyReading{})
	reg.MustRegister(priorityAlert{})
	n := NewNode(ep, reg, fastCfg())
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// marshaled is the record seal owes env on proto's channel: Marshal's
// for a certified class, or on a link, with what a link leaves out left
// out (the incarnation too, where the link's binding names it),
// SealLink's of a copy of the payload, which it cannot write in place.
func marshaled(t *testing.T, n *Node, env *codec.Envelope, proto string) []byte {
	t.Helper()
	want := *env
	marshal := codec.Marshal
	if proto != "cert" {
		want.Type = ""
		if want.Publisher == n.self {
			want.Publisher = ""
		}
		if proto == "fifo" || proto == "causal" || proto == "rel" {
			want.Name.Inc = 0
		}
		want.Payload = bytes.Clone(want.Payload)
		marshal = codec.SealLink
	}
	b, err := marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// inPlace reports whether record ends in env's payload where Encode
// wrote it rather than in a copy.
func inPlace(record []byte, env *codec.Envelope) bool {
	n := len(env.Payload)
	return n > 0 && len(record) >= n && &record[len(record)-1] == &env.Payload[n-1]
}

// TestSealedRecordIsMarshalsRecord: for every protocol's class, a Timely
// class and a prioritary one, in the link form and, for the certified
// class, the full form, the record seal writes in front of a payload
// fresh from Encode is byte for byte the one Marshal copies, and opens
// to the published envelope; whether the publisher is the node (left
// out on a link) or somebody else (carried).
func TestSealedRecordIsMarshalsRecord(t *testing.T) {
	n := sealNode(t)
	for _, c := range []struct {
		tag string
		o   obvent.Obvent
	}{
		{"be", StockQuote{StockObvent{Company: "T", Price: 80, Amount: 6}}},
		{"rel", relPing{N: 1}},
		{"fifo", fifoTick{N: 2}},
		{"causal", causalMsg{Text: "three"}},
		{"total", orderedTick{N: 4}},
		{"cert", certTrade{N: 5}},
		{"be", timelyReading{TimelyBase: obvent.TimelyBase{TTL: time.Minute, BirthTime: time.Unix(1790000000, 5)}, Sensor: "s-1", Value: 21.5, Seq: 7}},
		{"be", priorityAlert{PriorityBase: obvent.PriorityBase{Prio: 3}, Text: "urgent"}},
	} {
		for _, publisher := range []string{n.Addr(), "somebody-else"} {
			env, err := n.cdc.EncodeFrom(publisher, c.o)
			if err != nil {
				t.Fatal(err)
			}
			env.Name = testName
			if proto := n.protoFor(env); proto != c.tag {
				t.Fatalf("%s resolves to protocol %q, want %q", env.Type, proto, c.tag)
			}
			what := fmt.Sprintf("%s from %s", env.Type, publisher)
			want := marshaled(t, n, env, c.tag)
			got, err := n.seal(env, c.tag)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: sealed\n%x, Marshal writes\n%x", what, got, want)
			}
			if !inPlace(got, env) {
				t.Errorf("%s: the record copies the payload", what)
			}
			// The receiver's link names the publisher's epoch; a stored
			// record spells the name, which opens as the name.
			var back codec.Envelope
			if err := openInto(&back, env.Type, n.Addr(), testName.Inc, got); err != nil || !sameFields(&back, env) {
				t.Errorf("%s: the record opens to\n%+v, %v; want\n%+v", what, back, err, *env)
			}
		}
	}
}

// testName is the name PublishEnvelope would give an envelope.
var testName = codec.Name{Inc: 1790000000123456, N: 7}

// TestEnvelopeCopySealsItsOwnRecord: a copy of an envelope shares its
// payload and the room in front of it, and the room goes to the first
// seal only. A copy with a longer ID sealed after the original gets a
// record of its own, and the original's, which a link or an outbox
// keeps, is left as it was; sealed the other way round, the copy's
// header does not fit the room and the original still seals in place.
// Copies sealed at once from many goroutines each get their own record.
func TestEnvelopeCopySealsItsOwnRecord(t *testing.T) {
	n := sealNode(t)
	encode := func() *codec.Envelope {
		env, err := n.cdc.EncodeFrom(n.Addr(), certTrade{N: 9})
		if err != nil {
			t.Fatal(err)
		}
		env.Name = testName
		return env
	}
	seal := func(env *codec.Envelope) []byte {
		record, err := n.seal(env, "cert")
		if err != nil {
			t.Fatal(err)
		}
		if want := marshaled(t, n, env, "cert"); !bytes.Equal(record, want) {
			t.Fatalf("%s sealed\n%x, Marshal writes\n%x", env.ID, record, want)
		}
		return record
	}

	env := encode()
	later := *env
	later.ID = env.Name.String() + "-later"
	first := seal(env)
	kept := bytes.Clone(first)
	if !inPlace(first, env) {
		t.Error("the original did not seal in place")
	}
	if second := seal(&later); inPlace(second, &later) {
		t.Error("the copy sealed after the original wrote over its room")
	}
	if !bytes.Equal(first, kept) {
		t.Errorf("sealing the copy changed the original's record:\n%x, was\n%x", first, kept)
	}
	if again := seal(env); inPlace(again, env) {
		t.Error("the original sealed twice wrote its room twice")
	}

	env = encode()
	earlier := *env
	earlier.ID = env.Name.String() + "-earlier"
	if record := seal(&earlier); inPlace(record, &earlier) {
		t.Error("a copy whose header does not fit the room sealed in place")
	}
	if record := seal(env); !inPlace(record, env) {
		t.Error("the original did not seal in place after a copy that did not fit")
	}

	env = encode()
	const copies = 8
	var wg sync.WaitGroup
	records := make([][]byte, copies)
	envs := make([]codec.Envelope, copies)
	for i := range envs {
		envs[i] = *env
		envs[i].ID = fmt.Sprintf("%031d%d", 0, i) // the original's length: every header fits
	}
	for i := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[i], _ = n.seal(&envs[i], "cert")
		}()
	}
	wg.Wait()
	inPlaces := 0
	for i, record := range records {
		if want := marshaled(t, n, &envs[i], "cert"); !bytes.Equal(record, want) {
			t.Errorf("copy %d sealed\n%x, Marshal writes\n%x", i, record, want)
		}
		if inPlace(record, &envs[i]) {
			inPlaces++
		}
	}
	if inPlaces != 1 {
		t.Errorf("%d of %d concurrent seals wrote the room, want 1", inPlaces, copies)
	}
}

// TestSealAllocs pins what sealing an envelope fresh from Encode costs,
// in the link form and in full: nothing, the header going into the room
// Encode left in front of the payload.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n := sealNode(t)
	for _, c := range []struct {
		o     obvent.Obvent
		proto string
	}{
		{fifoTick{N: 1}, "fifo"},
		{certTrade{N: 1}, "cert"},
	} {
		const runs = 100
		envs := make([]*codec.Envelope, runs+1) // AllocsPerRun calls once more to warm up
		for i := range envs {
			env, err := n.cdc.EncodeFrom(n.Addr(), c.o)
			if err != nil {
				t.Fatal(err)
			}
			env.Name = codec.Name{Inc: testName.Inc, N: uint64(i + 1)}
			envs[i] = env
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			record, err := n.seal(envs[i], c.proto)
			if err != nil || !inPlace(record, envs[i]) {
				t.Fatalf("seal: %v, or a copy", err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("sealing a %T envelope fresh from Encode (%s) allocates %.1f times, want 0", c.o, c.proto, allocs)
		}
	}
}

// TestCertifiedRecordOpensWithoutCopies pins what opening a certified
// stored record costs: nothing, when its class and publisher are the
// binding's and its ID is a name's text, which opens as the name. A
// publisher other than the frame's origin is copied, in one allocation.
func TestCertifiedRecordOpensWithoutCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	n := sealNode(t)
	env, err := n.cdc.EncodeFrom(n.Addr(), certTrade{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	env.Name = testName
	record, err := n.seal(env, "cert")
	if err != nil {
		t.Fatal(err)
	}
	class, origin := string([]byte(env.Type)), string([]byte(n.Addr())) // not the record's own strings
	var back codec.Envelope
	for _, c := range []struct {
		origin string
		want   float64
	}{{origin, 0}, {"somebody-else", 1}} {
		if got := allocs.PerRun(100, func() {
			if err := openInto(&back, class, c.origin, 0, record); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("opening the record from %s allocates %.2f times, want %.0f", c.origin, got, c.want)
		}
		if back.Name != testName || back.ID != "" || back.Type != class || back.Publisher != n.Addr() {
			t.Errorf("the record from %s opens to %+v", c.origin, back)
		}
	}
}
