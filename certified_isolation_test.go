// What a certified class keeps to itself: its events (no other class's
// subscriber is sent them) and, without a durability directory, its
// memory (the outbox holds what is unacknowledged).
package govents_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"govents"
	"govents/netsim"
	"govents/obvent"
)

// otherTick is a second certified class beside chaosTick.
type otherTick struct {
	obvent.Base
	obvent.CertifiedBase
	Seq int
}

// subscribeEither subscribes under a durable identity where the domain
// has a durability directory, and plainly where it has not.
func subscribeEither[T govents.Obvent](t *testing.T, d *govents.Domain, durable bool, id string, h func(T)) {
	t.Helper()
	var err error
	if durable {
		_, err = govents.SubscribeDurable(d, id, h)
	} else {
		_, err = govents.Subscribe(d, nil, h)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCertifiedClassesDoNotLeakIntoEachOther: pub publishes two
// certified classes, sa subscribes to one and sb to the other. Once
// both of pub's groups exist, a hundred events of sa's class put no
// frame on the wire from pub to sb. (A default domain used to keep
// every class's events in one outbox, which owed them to every class's
// subscribers: sb was sent all hundred, a redelivery tick late, on its
// own class's stream, and threw them away.)
func TestCertifiedClassesDoNotLeakIntoEachOther(t *testing.T) {
	const interval = 5 * time.Millisecond // selfNet's RetransmitInterval
	for _, onDisk := range []bool{false, true} {
		t.Run(fmt.Sprintf("durability=%v", onDisk), func(t *testing.T) {
			ctx := context.Background()
			root := t.TempDir()
			sn := &selfNet{
				t:     t,
				net:   netsim.New(netsim.Config{MaxLatency: time.Millisecond, Seed: 29}),
				addrs: []string{"pub", "sa", "sb"},
				opts: func(addr string) []govents.Option {
					if !onDisk {
						return nil
					}
					return []govents.Option{govents.WithDurability(filepath.Join(root, addr))}
				},
			}
			defer sn.net.Close()
			pub, tap := sn.open("pub")
			sa, _ := sn.open("sa")
			sb, _ := sn.open("sb")

			var atA, atB atomic.Int64
			subscribeEither(t, sa, onDisk, "desk-a", func(chaosTick) { atA.Add(1) })
			subscribeEither(t, sb, onDisk, "desk-b", func(otherTick) { atB.Add(1) })
			waitFor(t, "both ads at pub", func() bool { return pub.RemoteSubscriptionCount() >= 2 })

			// One event of each class, so that both groups exist at pub
			// and each has its subscriber registered with its outbox.
			if err := pub.Publish(ctx, otherTick{Seq: 0}); err != nil {
				t.Fatal(err)
			}
			if err := pub.Publish(ctx, chaosTick{Pub: "pub", Seq: 0}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the first event of each class", func() bool { return atA.Load() == 1 && atB.Load() == 1 })
			time.Sleep(4 * interval) // their acknowledgements are in
			sn.net.Settle()
			before := len(tap.sentTo("sb"))

			const n = 100
			for i := 1; i <= n; i++ {
				if err := pub.Publish(ctx, chaosTick{Pub: "pub", Seq: i}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "sa's class at sa", func() bool { return atA.Load() == n+1 })
			if !onDisk {
				waitFor(t, "sa's acknowledgements at pub", func() bool {
					return govents.CertifiedOutboxLen(pub, obvent.TypeName(obvent.TypeOf[chaosTick]())) == 0
				})
			}
			time.Sleep(10 * interval) // whatever a redelivery tick owes sb has left by now
			sn.net.Settle()

			if leaked := tap.sentTo("sb")[before:]; len(leaked) != 0 {
				t.Errorf("pub sent sb %d frames while publishing only sa's class, want none; streams: %v",
					len(leaked), leaked)
			}
			if got := atB.Load(); got != 1 {
				t.Errorf("sb's handler saw %d events, want the one of its class", got)
			}
			if got := atA.Load(); got != n+1 {
				t.Errorf("sa's handler saw %d events, want %d", got, n+1)
			}
		})
	}
}

// TestDefaultOutboxHoldsWhatIsUnacknowledged: a default two-node domain
// publishes 5,000 certified events; once the subscriber has
// acknowledged them the publisher's outbox is empty, with nobody
// calling GC. (It used to hold all 5,000 for as long as the domain
// lived, and every redelivery tick walked them.)
func TestDefaultOutboxHoldsWhatIsUnacknowledged(t *testing.T) {
	ctx := context.Background()
	sn := &selfNet{
		t:     t,
		net:   netsim.New(netsim.Config{MaxLatency: 200 * time.Microsecond, Seed: 31}),
		addrs: []string{"node-0", "node-1"},
		opts:  func(string) []govents.Option { return nil },
	}
	defer sn.net.Close()
	d0, _ := sn.open("node-0")
	d1, _ := sn.open("node-1")
	var got atomic.Int64
	if _, err := govents.Subscribe(d1, nil, func(chaosTick) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node-1's ad at node-0", func() bool { return d0.RemoteSubscriptionCount() >= 1 })

	const total, window = 5000, 256
	class := obvent.TypeName(obvent.TypeOf[chaosTick]())
	for i := int64(0); i < total; i++ {
		for i-got.Load() >= window {
			time.Sleep(50 * time.Microsecond)
		}
		if err := d0.Publish(ctx, chaosTick{Pub: "node-0", Seq: int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all delivered and acknowledged", func() bool {
		return got.Load() >= total && govents.CertifiedOutboxLen(d0, class) == 0
	})
	if got.Load() != total {
		t.Errorf("subscriber delivered %d, want exactly %d", got.Load(), total)
	}
}
