package netsim

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector accumulates received messages thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collector) handler(from string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, from+":"+string(payload))
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) all() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, err := n.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	b.SetHandler(c.handler)
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	n.Settle()
	if got := c.all(); len(got) != 1 || got[0] != "a:hello" {
		t.Fatalf("received %v", got)
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	if _, err := n.NewEndpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewEndpoint("a"); err == nil {
		t.Fatal("expected duplicate-address error")
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	if err := a.Send("ghost", []byte("x")); err == nil {
		t.Fatal("expected error for unknown destination")
	}
}

func TestSendToSelf(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	var c collector
	a.SetHandler(c.handler)
	if err := a.Send("a", []byte("loop")); err != nil {
		t.Fatal(err)
	}
	n.Settle()
	if c.len() != 1 {
		t.Fatalf("self-send delivered %d times", c.len())
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	n := New(Config{LossRate: 1.0})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var c collector
	b.SetHandler(c.handler)
	for i := 0; i < 50; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	n.Settle()
	if c.len() != 0 {
		t.Fatalf("lossRate=1 delivered %d messages", c.len())
	}
	sent, _, dropped, delivered := n.Stats()
	if sent != 50 || dropped != 50 || delivered != 0 {
		t.Errorf("stats sent=%d dropped=%d delivered=%d", sent, dropped, delivered)
	}
}

func TestPartialLossIsSeeded(t *testing.T) {
	run := func(seed int64) int {
		n := New(Config{LossRate: 0.5, Seed: seed})
		defer n.Close()
		a, _ := n.NewEndpoint("a")
		b, _ := n.NewEndpoint("b")
		var c collector
		b.SetHandler(c.handler)
		for i := 0; i < 200; i++ {
			_ = a.Send("b", []byte("x"))
		}
		n.Settle()
		return c.len()
	}
	x, y := run(7), run(7)
	if x != y {
		t.Errorf("same seed gave different outcomes: %d vs %d", x, y)
	}
	if x == 0 || x == 200 {
		t.Errorf("lossRate=0.5 delivered %d of 200", x)
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{DupRate: 1.0})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var c collector
	b.SetHandler(c.handler)
	for i := 0; i < 10; i++ {
		_ = a.Send("b", []byte("x"))
	}
	n.Settle()
	if c.len() != 20 {
		t.Fatalf("dupRate=1 delivered %d, want 20", c.len())
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	cc, _ := n.NewEndpoint("c")
	var cb, ccoll collector
	b.SetHandler(cb.handler)
	cc.SetHandler(ccoll.handler)

	n.Partition([]string{"a"}, []string{"b"})
	_ = a.Send("b", []byte("cut"))
	_ = a.Send("c", []byte("ok"))
	n.Settle()
	if cb.len() != 0 {
		t.Error("partitioned link delivered a message")
	}
	if ccoll.len() != 1 {
		t.Error("unpartitioned link should deliver")
	}

	n.Heal()
	_ = a.Send("b", []byte("back"))
	n.Settle()
	if cb.len() != 1 {
		t.Error("healed link should deliver")
	}
}

func TestCrashAndRestart(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var c collector
	b.SetHandler(c.handler)

	n.Crash("b")
	_ = a.Send("b", []byte("lost"))
	n.Settle()
	if c.len() != 0 {
		t.Error("crashed endpoint received a message")
	}

	n.Restart("b")
	_ = a.Send("b", []byte("alive"))
	n.Settle()
	if c.len() != 1 {
		t.Error("restarted endpoint should receive")
	}
}

func TestCrashLosesInFlight(t *testing.T) {
	n := New(Config{MinLatency: 30 * time.Millisecond, MaxLatency: 40 * time.Millisecond})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var c collector
	b.SetHandler(c.handler)
	_ = a.Send("b", []byte("in-flight"))
	n.Crash("b") // crash while the message is still in the air
	n.Settle()
	if c.len() != 0 {
		t.Error("message delivered to endpoint that crashed mid-flight")
	}
}

func TestLatencyIsApplied(t *testing.T) {
	n := New(Config{MinLatency: 20 * time.Millisecond, MaxLatency: 25 * time.Millisecond})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	done := make(chan time.Time, 1)
	b.SetHandler(func(string, []byte) { done <- time.Now() })
	start := time.Now()
	_ = a.Send("b", []byte("x"))
	got := <-done
	if d := got.Sub(start); d < 20*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ 20ms", d)
	}
}

func TestClosedEndpointSendFails(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	_, _ = n.NewEndpoint("b")
	_ = a.Close()
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send on closed endpoint should fail")
	}
}

func TestCloseNetworkStopsTraffic(t *testing.T) {
	n := New(Config{})
	a, _ := n.NewEndpoint("a")
	_, _ = n.NewEndpoint("b")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send on closed network should fail")
	}
	// Idempotent close.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	got := make(chan string, 1)
	b.SetHandler(func(_ string, p []byte) { got <- string(p) })
	buf := []byte("original")
	_ = a.Send("b", buf)
	buf[0] = 'X' // mutate after send
	if received := <-got; received != "original" {
		t.Errorf("payload aliased sender buffer: %q", received)
	}
}

// TestKeptPayloadIsPoisoned: a handler has its payload for the call
// only. Each delivery, both copies of a duplicated frame included, gets
// a copy of its own, and a handler that keeps it without copying finds
// poison in it once it has returned.
func TestKeptPayloadIsPoisoned(t *testing.T) {
	n := New(Config{DupRate: 1})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var mu sync.Mutex
	var kept [][]byte
	b.SetHandler(func(_ string, p []byte) {
		if string(p) != "payload" {
			t.Errorf("handler got %q, want %q", p, "payload")
		}
		mu.Lock()
		kept = append(kept, p)
		mu.Unlock()
	})
	if err := a.Send("b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	n.Settle()
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != 2 || &kept[0][0] == &kept[1][0] {
		t.Fatalf("%d deliveries of a duplicated frame, want 2 with a copy each", len(kept))
	}
	for _, p := range kept {
		if !bytes.Equal(p, bytes.Repeat([]byte{poisonByte}, len("payload"))) {
			t.Errorf("a payload kept past its handler holds %q, want poison", p)
		}
	}
}

func TestHandlerMaySend(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint("a")
	b, _ := n.NewEndpoint("b")
	var pong atomic.Int32
	b.SetHandler(func(from string, p []byte) {
		_ = b.Send(from, []byte("pong"))
	})
	a.SetHandler(func(from string, p []byte) {
		pong.Add(1)
	})
	_ = a.Send("b", []byte("ping"))
	n.Settle()
	if pong.Load() != 1 {
		t.Fatalf("pong count = %d", pong.Load())
	}
}

func TestConcurrentSendsAllDelivered(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	const senders, per = 8, 100
	sink, _ := n.NewEndpoint("sink")
	var count atomic.Int64
	sink.SetHandler(func(string, []byte) { count.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		ep, err := n.NewEndpoint(string(rune('A' + i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				_ = ep.Send("sink", []byte("m"))
			}
		}()
	}
	wg.Wait()
	n.Settle()
	if count.Load() != senders*per {
		t.Fatalf("delivered %d, want %d", count.Load(), senders*per)
	}
}
