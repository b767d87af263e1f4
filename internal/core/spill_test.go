package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"govents/internal/codec"
	"govents/internal/obvent"
	"govents/internal/vclock"
)

// checkSpillRoundTrip writes env as a spill record and reads the record
// back: every envelope field must survive, Priority and HasPriority
// included.
func checkSpillRoundTrip(t *testing.T, env *codec.Envelope) {
	t.Helper()
	rec, err := codec.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatalf("AppendEnvelope: %v", err)
	}
	back, err := codec.Unmarshal(rec)
	if err != nil {
		t.Fatalf("Unmarshal of a spill record: %v", err)
	}
	if !back.Birth.Equal(env.Birth) || !bytes.Equal(back.Payload, env.Payload) {
		t.Fatalf("round trip changed Birth or Payload:\n got %+v\nwant %+v", back, env)
	}
	x, y := *back, *env
	x.Birth, y.Birth = time.Time{}, time.Time{}
	x.Payload, y.Payload = nil, nil
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("round trip changed the envelope:\n got %+v\nwant %+v", back, env)
	}
}

// FuzzSpillRecord feeds raw bytes to the decoder of the spill log's
// records, which reads whatever the lane's overflow segment holds: it
// must return an error or an envelope, never panic, and what it accepts
// must round-trip. A record the lane writes for an envelope built from
// the input must decode to that envelope, its Priority included.
func FuzzSpillRecord(f *testing.F) {
	full := codec.Envelope{
		ID: "e1", Type: "freeTick", Publisher: "p", Payload: []byte{1, 2, 3},
		VC:          vclock.VC{"a": 1, "b": math.MaxUint64},
		Reliability: obvent.ReliableDelivery, Ordering: obvent.Causal,
		HasPriority: true, Birth: time.Unix(1790000000, 999999999),
		TTL: 5 * time.Second, PubNanos: 1790000000123456789,
	}
	for _, prio := range []int64{0, -3, math.MaxInt64, math.MinInt64} {
		for _, env := range []codec.Envelope{{}, full} {
			env.Priority = int(prio)
			rec, err := codec.AppendEnvelope(nil, &env)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec, prio)
			f.Add(rec[:len(rec)/2], prio)
		}
	}
	f.Add([]byte("short"), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		if env, err := codec.Unmarshal(data); err == nil {
			checkSpillRoundTrip(t, env)
		}
		// An ID that is a name's text is that name (codec.IdentOf).
		id := codec.IdentOf(data[:min(len(data), 64)])
		checkSpillRoundTrip(t, &codec.Envelope{
			Name:        id.Name,
			ID:          id.ID,
			Type:        "freeTick",
			Publisher:   "p",
			Payload:     data,
			Ordering:    obvent.Ordering(n & 3),
			Priority:    int(n >> 1),
			HasPriority: n&1 != 0,
			PubNanos:    n,
		})
	})
}
