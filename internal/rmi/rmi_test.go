package rmi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"govents/internal/clock"
	"govents/internal/multicast"
	"govents/internal/netsim"
)

// stockMarket is the paper's Figure 8 remote object.
type stockMarket struct {
	mu     sync.Mutex
	bought []string
}

func (m *stockMarket) Buy(company string, price float64, amount int, buyer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bought = append(m.bought, fmt.Sprintf("%s:%g:%d:%s", company, price, amount, buyer))
	return true
}

func (m *stockMarket) Quote(company string) (float64, error) {
	if company == "" {
		return 0, errors.New("unknown company")
	}
	return 42.5, nil
}

func (m *stockMarket) Purchases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bought)
}

func newPair(t *testing.T, netCfg netsim.Config, opts Options) (*Runtime, *Runtime, *netsim.Network) {
	t.Helper()
	return newPairOn(t, clock.Real{}, netCfg, opts)
}

// newPairOn is newPair with both runtimes, and their links, on clock c.
func newPairOn(t *testing.T, c clock.Clock, netCfg netsim.Config, opts Options) (*Runtime, *Runtime, *netsim.Network) {
	t.Helper()
	net := netsim.New(netCfg)
	srvEp, err := net.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	cliEp, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	srv := newOwn(srvEp, c, opts)
	cli := newOwn(cliEp, c, opts)
	t.Cleanup(func() {
		_ = srv.Close()
		_ = cli.Close()
		_ = net.Close()
	})
	return srv, cli, net
}

func TestBasicCall(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{})
	market := &stockMarket{}
	if err := srv.Bind("market", market); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "market")
	var ok bool
	if err := p.Call("Buy", []any{"Telco", 80.0, 10, "broker-1"}, &ok); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !ok || market.Purchases() != 1 {
		t.Errorf("ok=%v purchases=%d", ok, market.Purchases())
	}
}

func TestCallWithErrorResult(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{})
	if err := srv.Bind("market", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "market")

	var price float64
	if err := p.Call("Quote", []any{"Telco"}, &price); err != nil {
		t.Fatal(err)
	}
	if price != 42.5 {
		t.Errorf("price = %v", price)
	}
	if err := p.Call("Quote", []any{""}, &price); err == nil || err.Error() != "unknown company" {
		t.Errorf("remote error = %v", err)
	}
}

func TestCallErrors(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{CallTimeout: 300 * time.Millisecond})
	if err := srv.Bind("market", &stockMarket{}); err != nil {
		t.Fatal(err)
	}

	p := cli.Dial("server", "ghost")
	if err := p.Call("Buy", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("unknown object err = %v", err)
	}

	p = cli.Dial("server", "market")
	if err := p.Call("NoSuchMethod", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("unknown method err = %v", err)
	}
	if err := p.Call("Buy", []any{"only-one-arg"}); !errors.Is(err, ErrBadArguments) {
		t.Errorf("bad arity err = %v", err)
	}
}

func TestCallTimeoutOnLoss(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{LossRate: 1.0}, Options{CallTimeout: 100 * time.Millisecond})
	if err := srv.Bind("market", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "market")
	if err := p.Call("Purchases", nil); !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{MaxLatency: 2 * time.Millisecond}, Options{})
	market := &stockMarket{}
	if err := srv.Bind("market", market); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "market")
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ok bool
			if err := p.Call("Buy", []any{"T", float64(i), i, "b"}, &ok); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if market.Purchases() != 20 {
		t.Errorf("purchases = %d", market.Purchases())
	}
}

// gate's Wait parks until release is closed, and counts the calls
// inside it.
type gate struct {
	release      chan struct{}
	mu           sync.Mutex
	inside, most int
}

func (g *gate) Wait() {
	g.mu.Lock()
	g.inside++
	g.most = max(g.most, g.inside)
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.inside--
	g.mu.Unlock()
}

// TestConcurrentCallsPastTheInvocationBound: more concurrent calls than a
// server runs at once all return, and no more than the bound ran at once.
func TestConcurrentCallsPastTheInvocationBound(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{})
	g := &gate{release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release) // before the runtimes close: Close waits for invocations
	if err := srv.Bind("gate", g); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "gate")
	const n = maxInvocations + 16
	errs := make(chan error, n)
	for range n {
		go func() { errs <- p.Call("Wait", nil) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		inside := g.inside
		g.mu.Unlock()
		if inside == maxInvocations {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls inside, want %d", inside, maxInvocations)
		}
		runtime.Gosched()
	}
	release()
	for range n {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if g.most > maxInvocations {
		t.Errorf("%d calls ran at once, want at most %d", g.most, maxInvocations)
	}
}

func TestBindErrors(t *testing.T) {
	srv, _, _ := newPair(t, netsim.Config{}, Options{})
	if err := srv.Bind("x", nil); err == nil {
		t.Error("nil receiver must fail")
	}
	if err := srv.Bind("m", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind("m", &stockMarket{}); err == nil {
		t.Error("duplicate bind must fail")
	}
}

func TestRefResolve(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{})
	if err := srv.Bind("market", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	ref := srv.RefTo("market") // the value an obvent would carry
	p := cli.Resolve(ref)
	var n int
	if err := p.Call("Purchases", nil, &n); err != nil {
		t.Fatal(err)
	}
}

// newOwn is New on clock c.
func newOwn(tr netsim.Transport, c clock.Clock, opts Options) *Runtime {
	mux := multicast.NewMux(tr)
	return Attach(tr.Addr(), func(deliver multicast.Deliver) *multicast.Reliable {
		return multicast.NewReliable(mux, Stream, deliver, multicast.Options{Clock: c})
	}, c, nil, opts)
}

// advance moves c on by d in steps of step, letting the network settle
// after each, so that what a timer sends lands before the next one runs.
func advance(c *clock.Fake, net *netsim.Network, d, step time.Duration) {
	for ; d > 0; d -= step {
		c.Advance(step)
		net.Settle()
	}
}

func TestDGCCaveatPinnedMode(t *testing.T) {
	// Paper §5.4.2: with RMI-style DGC, "if a single subscriber
	// crashes, the remote object will never be garbage collected."
	c := clock.NewFake(time.Unix(0, 0))
	opts := Options{DGC: DGCPinned, LeaseDuration: 40 * time.Millisecond}
	srv, cli, net := newPairOn(t, c, netsim.Config{}, opts)
	if err := srv.Export("session", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	_ = cli.Dial("server", "session")
	net.Settle() // attach lands

	net.Crash("client") // subscriber crashes without releasing

	advance(c, net, 200*time.Millisecond, 10*time.Millisecond) // many lease periods pass
	if !srv.Exported("session") {
		t.Fatal("pinned mode collected an object referenced by a crashed client; the paper's caveat should reproduce")
	}
}

func TestDGCLeasedCollectsAfterCrash(t *testing.T) {
	// The [CNH99]-style fix: leases from the crashed client expire and
	// the object is collected.
	c := clock.NewFake(time.Unix(0, 0))
	opts := Options{DGC: DGCLeased, LeaseDuration: 40 * time.Millisecond}
	srv, cli, net := newPairOn(t, c, netsim.Config{}, opts)
	if err := srv.Export("session", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	_ = cli.Dial("server", "session")
	net.Settle()

	net.Crash("client")

	for range 200 {
		if !srv.Exported("session") {
			return // collected
		}
		advance(c, net, 10*time.Millisecond, 10*time.Millisecond)
	}
	t.Fatal("leased mode failed to collect after client crash")
}

func TestDGCLeasedRenewalKeepsAlive(t *testing.T) {
	c := clock.NewFake(time.Unix(0, 0))
	opts := Options{DGC: DGCLeased, LeaseDuration: 60 * time.Millisecond}
	srv, cli, net := newPairOn(t, c, netsim.Config{}, opts)
	if err := srv.Export("session", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	p := cli.Dial("server", "session")
	net.Settle()
	// Across several lease periods the renewals keep it alive.
	advance(c, net, 300*time.Millisecond, 5*time.Millisecond)
	if !srv.Exported("session") {
		t.Fatal("live proxy's lease expired despite renewals")
	}
	p.Release()
	net.Settle()
	for range 200 {
		if !srv.Exported("session") {
			return
		}
		advance(c, net, 10*time.Millisecond, 10*time.Millisecond)
	}
	t.Fatal("object not collected after explicit release")
}

func TestAnchoredBindSurvivesGC(t *testing.T) {
	c := clock.NewFake(time.Unix(0, 0))
	opts := Options{DGC: DGCLeased, LeaseDuration: 30 * time.Millisecond}
	srv, _, net := newPairOn(t, c, netsim.Config{}, opts)
	if err := srv.Bind("registry-root", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	advance(c, net, 150*time.Millisecond, 10*time.Millisecond)
	if !srv.Exported("registry-root") {
		t.Fatal("anchored bind must never be collected")
	}
}

// TestProxiesHoldNoGoroutines pins that a proxy costs no goroutine: the
// runtime renews every lease from one timer on its clock.
func TestProxiesHoldNoGoroutines(t *testing.T) {
	c := clock.NewFake(time.Unix(0, 0))
	_, cli, net := newPairOn(t, c, netsim.Config{}, Options{DGC: DGCLeased})
	net.Settle()
	before := runtime.NumGoroutine()
	for i := range 50 {
		_ = cli.Dial("server", fmt.Sprintf("object-%d", i))
	}
	net.Settle()
	c.Advance(time.Second) // renewals fall due
	net.Settle()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with 50 proxies, %d with none", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestUnbind(t *testing.T) {
	srv, cli, _ := newPair(t, netsim.Config{}, Options{CallTimeout: 300 * time.Millisecond})
	if err := srv.Bind("m", &stockMarket{}); err != nil {
		t.Fatal(err)
	}
	srv.Unbind("m")
	p := cli.Dial("server", "m")
	if err := p.Call("Purchases", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("err = %v", err)
	}
}
