package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"govents/internal/codec"
	"govents/internal/seqset"
	"govents/internal/vclock"
)

// roundTrip encodes m, checks the record's size against messageSize,
// decodes it and returns what came back.
func roundTrip(t *testing.T, m *message) message {
	t.Helper()
	wire, err := encodeMessage(m)
	if err != nil {
		t.Fatalf("encode %+v: %v", m, err)
	}
	if size, _ := messageSize(m); size != len(wire) || cap(wire) != len(wire) {
		t.Fatalf("record of %d bytes (cap %d), messageSize says %d", len(wire), cap(wire), size)
	}
	var got message
	if err := decodeMessage(wire, &got); err != nil {
		t.Fatalf("decode %+v: %v", m, err)
	}
	return got
}

// TestMessageRoundTripEveryCombination walks every kind with every
// subset of the optional fields, with and without a payload.
func TestMessageRoundTripEveryCombination(t *testing.T) {
	kinds := []msgKind{kindData, kindAck, kindSkip}
	for _, kind := range kinds {
		for fields := uint64(0); fields <= knownFlags; fields++ {
			if fields&^knownFlags != 0 {
				continue // a retired bit
			}
			for _, payload := range [][]byte{nil, []byte("payload")} {
				m := message{Kind: kind, Payload: payload}
				if fields&flagSeq != 0 {
					m.Seq = 300
				}
				if fields&flagInc != 0 {
					m.Inc = 1_759_000_000_000_000
				}
				if fields&flagBase != 0 {
					m.Base = 299
				}
				if fields&flagOrigin != 0 {
					m.Origin = "127.0.0.1:40001"
				}
				if fields&flagID != 0 {
					m.ID = "0123456789abcdef0123456789abcdef"
				}
				if fields&flagVC != 0 {
					m.VC = vclock.VC{"b": 9, "a": 1, "": 3, "z": 0}
				}
				if m.flags() != fields {
					t.Fatalf("flags() = %#x for fields %#x", m.flags(), fields)
				}
				if m.Seq != 0 && m.Base > m.Seq {
					if _, err := encodeMessage(&m); err == nil {
						t.Fatalf("%+v: a base beyond the sequence must not encode", m)
					}
					continue
				}
				if got := roundTrip(t, &m); !reflect.DeepEqual(got, m) {
					t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
				}
			}
		}
	}
}

func TestMessageRoundTripProtocolFrames(t *testing.T) {
	tests := []struct {
		name string
		m    message
		size int // 0: not pinned
	}{
		{"besteffort data", message{Kind: kindData, Payload: []byte("payload")}, 2 + 7},
		{"reliable data", message{Kind: kindData, Seq: 70000, Base: 69990, Payload: []byte("p")}, 2 + 3 + 1 + 1},
		{"reliable ack", message{Kind: kindAck, Inc: 1, Seq: 70000, Payload: seqset.AppendRuns(nil, 70000, []seqset.Run{{Lo: 70002, Hi: 70002}, {Lo: 70005, Hi: 70009}})}, 2 + 1 + 3 + 4},
		{"reliable base announcement", message{Kind: kindSkip, Base: 70001}, 2 + 3},
		{"causal data", message{Kind: kindData, VC: vclock.VC{"a": 1, "b": 9}, Payload: []byte{0}}, 0},
		{"causal clock marker", message{Kind: kindSkip, VC: vclock.VC{"a": 1, "b": 9}}, 0},
		{"total data", message{Kind: kindData, Seq: 99, Base: 90, Origin: "p", Payload: []byte("x")}, 2 + 1 + 1 + 2 + 1},
		{"certified data", message{Kind: kindData, Seq: 70000, Base: 69990, ID: "id-1", Payload: []byte("payload")}, 2 + 3 + 1 + 5 + 7},
		{"certified ack", message{Kind: kindAck, Inc: 1, Seq: 70015, Origin: "consumer", Payload: seqset.AppendRuns(nil, 70015, []seqset.Run{{Lo: 70017, Hi: 70017}})}, 2 + 1 + 3 + 9 + 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, &tt.m)
			if !reflect.DeepEqual(got, tt.m) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, tt.m)
			}
			if size, _ := messageSize(&tt.m); tt.size != 0 && size != tt.size {
				t.Errorf("record is %d bytes, want %d", size, tt.size)
			}
		})
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(origin, id string, seq, base, inc uint64, payload []byte) bool {
		if len(origin) > maxWireString || len(id) > maxWireString {
			return true // out of contract
		}
		if seq != 0 {
			base = seq/2 + seq%2 // a data frame's base trails its sequence; an announcement's stands alone
		}
		m := &message{Kind: kindData, Origin: origin, Seq: seq, Inc: inc, Base: base, ID: id, Payload: payload}
		wire, err := encodeMessage(m)
		if err != nil {
			return false
		}
		var got message
		if err := decodeMessage(wire, &got); err != nil {
			return false
		}
		if len(payload) == 0 {
			m.Payload = nil // an empty payload and none are the same record
		}
		return reflect.DeepEqual(&got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMessageTruncated(t *testing.T) {
	m := &message{Kind: kindData, Origin: "origin", Seq: 300, Inc: 77, Base: 1, ID: "id", VC: vclock.VC{"k": 1}}
	wire, err := encodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	// Without a payload every byte belongs to a field, so every proper
	// prefix is short of one.
	for cut := 0; cut < len(wire); cut++ {
		var got message
		if err := decodeMessage(wire[:cut], &got); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(wire))
		}
	}
}

func TestDecodeMessageRejectsNonCanonical(t *testing.T) {
	cases := map[string][]byte{
		"unknown flag":           {byte(kindData), 0x80, 0x04},
		"overlong flags":         {byte(kindData), 0x81, 0x00},
		"zero Seq flagged":       {byte(kindData), flagSeq, 0},
		"overlong Seq":           {byte(kindData), flagSeq, 0x81, 0x00},
		"varint overflow":        {byte(kindData), flagSeq, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"retired SkipFrom flag":  {byte(kindData), flagSeq | 2, 5, 5},
		"retired GSeq flag":      {byte(kindData), 16, 5},
		"retired Rounds flag":    {byte(kindData), 0x80, 0x01, 5},
		"base below 1":           {byte(kindData), flagSeq | flagBase, 5, 5},
		"absolute base zero":     {byte(kindSkip), flagBase, 0},
		"empty Origin":           {byte(kindData), flagOrigin, 0},
		"Origin past the end":    {byte(kindData), flagOrigin, 9, 'a'},
		"empty vector clock":     {byte(kindData), 0x80, 0x02, 0},
		"vector clock too large": {byte(kindData), 0x80, 0x02, 9, 1, 'a', 1},
		"vector clock unordered": {byte(kindData), 0x80, 0x02, 2, 1, 'b', 1, 1, 'a', 1},
		"vector clock duplicate": {byte(kindData), 0x80, 0x02, 2, 1, 'a', 1, 1, 'a', 2},
	}
	for name, wire := range cases {
		var m message
		if err := decodeMessage(wire, &m); err == nil {
			t.Errorf("%s: decoded %x as %+v", name, wire, m)
		}
	}
}

func TestDecodeMessageAliasesPayload(t *testing.T) {
	wire, err := encodeMessage(&message{Kind: kindData, Seq: 1, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	var m message
	if err := decodeMessage(wire, &m); err != nil {
		t.Fatal(err)
	}
	if &m.Payload[0] != &wire[len(wire)-len(m.Payload)] {
		t.Error("the decoded payload is a copy; it must alias the frame")
	}
}

// TestMessageCodecAllocs pins the hot path's allocations: one buffer to
// encode, nothing to decode a frame without strings or a vector clock.
// A frame, which is built in a reused buffer, costs none
// (TestMuxSendAllocs).
func TestMessageCodecAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 120)
	data := message{Kind: kindData, Inc: 1_759_000_000_000_000, Seq: 70000, Base: 69990, Payload: payload}
	var wire []byte
	if n := testing.AllocsPerRun(100, func() { wire, _ = encodeMessage(&data) }); n > 1 {
		t.Errorf("encodeMessage: %v allocations, want at most 1", n)
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		var m message
		if err := decodeMessage(wire, &m); err != nil {
			t.Fatal(err)
		}
		sink += len(m.Payload)
	}); n != 0 {
		t.Errorf("decodeMessage: %v allocations, want 0", n)
	}
}

// FuzzDecodeMessage feeds the peer-facing decoder raw bytes: it must
// never panic, must hold no more memory than the input it was given,
// and whatever it accepts must re-encode to the same bytes.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []message{
		{Kind: kindData, Payload: []byte("payload")},
		{Kind: kindData, Inc: 1_759_000_000_000_000, Seq: 70000, Base: 69990, Payload: []byte("p")},
		{Kind: kindAck, Inc: 1_759_000_000_000_000, Seq: 70000, Payload: seqset.AppendRuns(nil, 70000, []seqset.Run{{Lo: 70002, Hi: 70002}, {Lo: 70005, Hi: 70009}})},
		{Kind: kindSkip, Inc: 1_759_000_000_000_000, Base: 70001},
		{Kind: kindData, Inc: 1_759_000_000_000_000, Seq: 99, Base: 90, Origin: "p", Payload: []byte("x")},
		{Kind: kindData, VC: vclock.VC{"a": 1, "b": 9}, Payload: []byte{0}},
		{Kind: kindSkip, VC: vclock.VC{"a": 1, "b": 9}},
		{Kind: kindData, ID: "id-1", Payload: []byte("payload")},
		{Kind: kindData, Seq: 70000, Base: 69990, ID: "id-1", Payload: []byte("payload")},
		{Kind: kindAck, Inc: 1_759_000_000_000_000, Seq: 70015, Origin: "desk", Payload: seqset.AppendRuns(nil, 70015, []seqset.Run{{Lo: 70017, Hi: 70017}})},
		// Run lists seqset.EachRun must stop at, quietly: a zero gap, a run
		// past the end of the numbers, half a pair.
		{Kind: kindAck, Inc: 1, Origin: "desk", Payload: []byte{3, 0, 0, 0}},
		{Kind: kindAck, Inc: 1, Origin: "desk", Payload: append(binary.AppendUvarint(nil, math.MaxUint64), 1, 1, 0)},
		{Kind: kindAck, Inc: 1, Origin: "desk", Payload: []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
		{Kind: kindAck, Inc: 1, Origin: "desk", Payload: []byte{5, 2, 4}},
	} {
		wire, err := encodeMessage(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(kindData), 0xFF, 0x03})
	f.Add([]byte{byte(kindData), 0x80, 0x01, 5}) // the retired Rounds flag
	// The records a data frame carries: an envelope's link form, named by
	// its count alone or with its incarnation, and a certified event's
	// stored record, which spells the name the frame leaves out.
	for _, rec := range envelopeRecords(f) {
		wire, err := encodeMessage(&message{Kind: kindData, Seq: 70000, Base: 69990, Payload: rec})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-len(rec)+4]) // cut inside the name
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m message
		if err := decodeMessage(data, &m); err != nil {
			if !reflect.DeepEqual(m, message{}) {
				t.Fatalf("a rejected record left %+v behind", m)
			}
			return
		}
		held := len(m.Origin) + len(m.ID) + len(m.Payload)
		for k := range m.VC {
			held += len(k) + 1
		}
		if held > len(data) {
			t.Fatalf("decoded message holds %d bytes of a %d-byte record", held, len(data))
		}
		again, err := encodeMessage(&m)
		if err != nil {
			t.Fatalf("accepted %x but cannot re-encode %+v: %v", data, m, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encoded %x (%s)", data, again, fmt.Sprintf("%+v", m))
		}
		// An acknowledgement's run list is a peer's too: whatever it
		// holds, the runs read from it ascend above the floor, a gap
		// apart, and each costs at least the two bytes of its pair.
		if m.Kind == kindAck {
			runs, end := 0, m.Seq
			seqset.EachRun(m.Payload, m.Seq, func(lo, hi uint64) {
				if runs++; lo <= end || hi < lo {
					t.Fatalf("run %d..%d after %d in list %x", lo, hi, end, m.Payload)
				}
				end = hi
			})
			if 2*runs > len(m.Payload) {
				t.Fatalf("%d runs from a %d-byte list", runs, len(m.Payload))
			}
		}
	})
}

// envelopeRecords are the records of one event a data frame carries: the
// link form with the name's count alone (a numbered link names the
// incarnation) and with the incarnation (best effort, relayed), and the
// stored form (certified).
func envelopeRecords(tb testing.TB) [][]byte {
	env := &codec.Envelope{Name: codec.Name{Inc: 1_759_000_000_000_000, N: 70000}, Payload: []byte("payload"), PubNanos: 1}
	counted := *env
	counted.Name.Inc = 0
	var out [][]byte
	for _, seal := range []func() ([]byte, error){
		func() ([]byte, error) { return codec.SealLink(&counted) },
		func() ([]byte, error) { return codec.SealLink(env) },
		func() ([]byte, error) { return codec.Marshal(env) },
	} {
		rec, err := seal()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}
