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

// checkSpillRoundTrip writes env and prio as a spill record and reads the
// record back: the priority and every envelope field must survive.
func checkSpillRoundTrip(t *testing.T, env *codec.Envelope, prio int) {
	t.Helper()
	rec, err := marshalSpill(nil, env, prio)
	if err != nil {
		t.Fatalf("marshalSpill: %v", err)
	}
	back, gotPrio, err := unmarshalSpill(rec)
	if err != nil {
		t.Fatalf("unmarshalSpill of a marshalSpill record: %v", err)
	}
	if gotPrio != prio {
		t.Fatalf("priority %d came back as %d", prio, gotPrio)
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
// must round-trip. A record marshalSpill writes from the input must
// decode to the priority and the envelope it was given.
func FuzzSpillRecord(f *testing.F) {
	full := &codec.Envelope{
		ID: "e1", Type: "freeTick", Publisher: "p", Payload: []byte{1, 2, 3},
		VC:          vclock.VC{"a": 1, "b": math.MaxUint64},
		Reliability: obvent.ReliableDelivery, Ordering: obvent.Causal,
		Priority: -3, HasPriority: true, Birth: time.Unix(1790000000, 999999999),
		TTL: 5 * time.Second, PubNanos: 1790000000123456789,
	}
	for _, prio := range []int64{0, -3, math.MaxInt64, math.MinInt64} {
		for _, env := range []*codec.Envelope{{}, full} {
			rec, err := marshalSpill(nil, env, int(prio))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec, prio)
			f.Add(rec[:len(rec)/2], prio)
		}
	}
	f.Add([]byte("short"), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, prio int64) {
		if env, p, err := unmarshalSpill(data); err == nil {
			checkSpillRoundTrip(t, env, p)
		}
		checkSpillRoundTrip(t, &codec.Envelope{
			ID:          string(data[:min(len(data), 64)]),
			Type:        "freeTick",
			Publisher:   "p",
			Payload:     data,
			Ordering:    obvent.Ordering(prio & 3),
			Priority:    int(prio >> 1),
			HasPriority: prio&1 != 0,
			PubNanos:    prio,
		}, int(prio))
	})
}
