// One count per fact at the public API: every drop a domain can reach
// is read the same through DroppedByReason and Stats, and a lane's
// backlog shows in LaneStats, with telemetry on and off.
package govents_test

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/internal/multicast"
	"govents/netsim"
	"govents/obvent"
)

// Probe classes of TestDropReadOutsAgree, one per drop it provokes.
type (
	staleProbe struct {
		obvent.Base
		obvent.TimelyBase
		N int
	}
	panicProbe struct {
		obvent.Base
		N int
	}
	shedProbe struct {
		obvent.Base
		N int
	}
	slowProbe struct {
		obvent.Base
		N int
	}
)

// dropFields is what DroppedByReason must read for st: each reason's
// Stats field.
func dropFields(st govents.DispatchStats) map[string]uint64 {
	return map[string]uint64{
		"expired":         st.Expired,
		"decode_error":    st.DecodeErrors,
		"handler_panic":   st.HandlerPanics,
		"executor_closed": st.ExecutorClosed,
		"overload_shed":   st.Shed,
		"slow_consumer":   st.SlowConsumerDrops,
	}
}

// TestDropReadOutsAgree provokes, one after the other, an expired event,
// a handler panic, an undecodable frame on a class's channel, sheds of a
// bounded DropOldest lane and a slow consumer's mailbox overflow. After
// each, every DroppedByReason entry must equal its Stats field. The
// shedding lane's high-water mark must show the backlog, whether or not
// telemetry is on.
func TestDropReadOutsAgree(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("telemetry=%v", on), func(t *testing.T) { testDropReadOutsAgree(t, on) })
	}
}

func testDropReadOutsAgree(t *testing.T, telemetryOn bool) {
	ctx := context.Background()
	const bound, extra = 4, 3
	net := netsim.New(netsim.Config{})
	t.Cleanup(func() { _ = net.Close() })
	ep, err := net.NewEndpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	d, err := govents.Open(ctx, "node",
		govents.WithTransport(ep),
		govents.WithPeers("node"),
		govents.WithTelemetry(telemetryOn),
		govents.WithDispatchLanes(1),
		govents.WithLaneQueueBound(bound),
		govents.WithOverloadPolicy(govents.OverloadDropOldest),
		govents.WithSlowConsumerBudget(5*time.Millisecond, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close(ctx) })
	// Registered after Close, so run before it: a failed phase must not
	// leave a handler or a filter blocked.
	release, unwedge := make(chan struct{}), make(chan struct{})
	openRelease, openUnwedge := sync.OnceFunc(func() { close(release) }), sync.OnceFunc(func() { close(unwedge) })
	t.Cleanup(openRelease)
	t.Cleanup(openUnwedge)

	// agree waits for the drop counters to hold still across one
	// DroppedByReason read, then requires that read to equal them.
	agree := func(phase string) {
		t.Helper()
		var got, want map[string]uint64
		waitFor(t, phase+": drop counters at rest", func() bool {
			want = dropFields(d.Stats())
			got = d.DroppedByReason()
			return maps.Equal(want, dropFields(d.Stats()))
		})
		if !maps.Equal(got, want) {
			t.Errorf("%s: DroppedByReason = %v, Stats say %v", phase, got, want)
		}
	}
	publish := func(o govents.Obvent) {
		t.Helper()
		if err := d.Publish(ctx, o); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := govents.Subscribe(d, nil, func(staleProbe) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := govents.Subscribe(d, nil, func(panicProbe) { panic("probe handler exploded") }); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	var shedSeen atomic.Int64
	if _, err := govents.SubscribeLocal(d, func(p shedProbe) bool {
		if p.N == 0 { // holds the lane's goroutine: arrivals queue behind it
			close(entered)
			<-release
		}
		return true
	}, func(shedProbe) { shedSeen.Add(1) }); err != nil {
		t.Fatal(err)
	}
	slow, err := govents.Subscribe(d, nil, func(slowProbe) { <-unwedge })
	if err != nil {
		t.Fatal(err)
	}
	slow.SetSingleThreading()

	publish(staleProbe{TimelyBase: obvent.TimelyBase{TTL: time.Millisecond, BirthTime: time.Now().Add(-time.Second)}})
	waitFor(t, "the expiry", func() bool { return d.Stats().Expired == 1 })
	agree("expired")

	publish(panicProbe{})
	waitFor(t, "the panic", func() bool { return d.Stats().HandlerPanics == 1 })
	agree("handler panic")

	// A peer on the class's channel sends one frame that is no envelope.
	peer, err := net.NewEndpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	stream := "dace/be/" + obvent.TypeName(obvent.TypeOf[panicProbe]())
	be := multicast.NewBestEffort(multicast.NewMux(peer), stream, func(string, []byte) {})
	t.Cleanup(func() { _ = be.Close() })
	if err := be.BroadcastTo([]string{"node"}, []byte("not an envelope record")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the undecodable frame", func() bool { return d.Stats().DecodeErrors == 1 })
	agree("decode error")

	publish(shedProbe{N: 0})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the lane never dispatched the blocking probe")
	}
	for i := 1; i <= bound+extra; i++ {
		publish(shedProbe{N: i})
	}
	waitFor(t, "the sheds", func() bool { return d.Stats().Shed == extra })
	high := 0
	for _, l := range d.LaneStats() {
		high = max(high, l.HighWater)
	}
	if high != bound {
		t.Errorf("lane high-water mark = %d under a backlog of %d, want %d", high, bound+extra, bound)
	}
	openRelease()
	waitFor(t, "the survivors", func() bool { return shedSeen.Load() == 1+bound })
	agree("overload shed")

	// The first probe wedges the single-threaded handler; once it has
	// been stuck past the budget, the mailbox overflows.
	n := 0
	waitFor(t, "a slow-consumer drop", func() bool {
		n++
		publish(slowProbe{N: n})
		return d.Stats().SlowConsumerDrops > 0
	})
	openUnwedge()
	agree("slow consumer")
}
