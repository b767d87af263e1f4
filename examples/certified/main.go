// Certified delivery across a subscriber crash (paper §3.1.2 Certified
// semantics + §3.4.1 durable activation) on the public govents API: a
// trade-settlement feed whose subscriber crashes mid-stream, restarts,
// re-activates its subscription under the same durable identity, and
// receives every trade it missed — exactly once, thanks to the
// durability plane (govents.WithDurability): the publisher's outbox and
// the desk's staging inbox and cursor are segment logs on disk.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"govents"
	"govents/netsim"
	"govents/obvent"
)

// Settlement is a certified obvent: its type demands that disconnected
// subscribers eventually deliver it.
type Settlement struct {
	obvent.Base
	obvent.CertifiedBase
	TradeID int
	Amount  float64
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "govents-certified")
	must(err)
	defer os.RemoveAll(dir)

	net := netsim.New(netsim.Config{})
	defer net.Close()

	// Publisher with its outbox on disk (survives anything).
	pubEp, err := net.NewEndpoint("settler")
	must(err)
	pub, err := govents.Open(ctx, "settler",
		govents.WithTransport(pubEp),
		govents.WithDurability(filepath.Join(dir, "settler")),
		govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
	)
	must(err)
	defer pub.Close(ctx)

	// Subscriber whose stable storage is its own durability directory:
	// every incarnation of the desk opens the same one.
	deskDir := filepath.Join(dir, "desk")
	var mu sync.Mutex
	var received []int

	startSubscriber := func(addr string) *govents.Domain {
		ep, err := net.NewEndpoint(addr)
		must(err)
		d, err := govents.Open(ctx, addr,
			govents.WithTransport(ep),
			govents.WithDurability(deskDir),
			govents.WithTuning(govents.Tuning{RetransmitInterval: 5 * time.Millisecond}),
		)
		must(err)
		// paper: activate(id)
		_, err = govents.SubscribeDurable(d, "settlement-desk", func(s Settlement) {
			mu.Lock()
			received = append(received, s.TradeID)
			mu.Unlock()
			fmt.Printf("[desk@%s] settled trade %d (%.2f)\n", addr, s.TradeID, s.Amount)
		})
		must(err)
		return d
	}

	desk := startSubscriber("desk-1")
	must(pub.SetPeers("settler", "desk-1"))
	must(desk.SetPeers("settler", "desk-1"))
	waitUntil(func() bool { return pub.RemoteSubscriptionCount() >= 1 })

	// Trades 1-2 arrive normally.
	for i := 1; i <= 2; i++ {
		must(pub.Publish(ctx, Settlement{TradeID: i, Amount: float64(100 * i)}))
	}
	waitUntil(func() bool { mu.Lock(); defer mu.Unlock(); return len(received) == 2 })

	// The desk crashes. Trades 3-4 are published while it is down.
	fmt.Println("[desk] CRASH")
	net.Crash("desk-1")
	_ = desk.Close(ctx)
	for i := 3; i <= 4; i++ {
		must(pub.Publish(ctx, Settlement{TradeID: i, Amount: float64(100 * i)}))
	}
	time.Sleep(50 * time.Millisecond)

	// The desk restarts at a NEW address with the same durable
	// identity and the same durability directory.
	fmt.Println("[desk] RESTART at desk-2")
	desk2 := startSubscriber("desk-2")
	defer desk2.Close(ctx)
	must(pub.SetPeers("settler", "desk-2"))
	must(desk2.SetPeers("settler", "desk-2"))

	waitUntil(func() bool { mu.Lock(); defer mu.Unlock(); return len(received) == 4 })
	time.Sleep(50 * time.Millisecond) // redeliveries would land by now

	mu.Lock()
	seen := make(map[int]int)
	for _, id := range received {
		seen[id]++
	}
	mu.Unlock()
	for id := 1; id <= 4; id++ {
		if seen[id] != 1 {
			panic(fmt.Sprintf("trade %d delivered %d times", id, seen[id]))
		}
	}
	fmt.Println("certified: all 4 trades delivered exactly once across the crash: ok")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	panic("timeout")
}
