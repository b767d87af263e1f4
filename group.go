package govents

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"

	"govents/netsim"
)

// GroupConfig configures OpenGroup.
type GroupConfig struct {
	// Net is the fault model of the group's simulated network.
	Net netsim.Config
	// Durability, when non-empty, gives every member a durability
	// directory (WithDurability) under this root: member i uses
	// Durability/node-i, and keeps it across Crash/Restart cycles.
	Durability string
	// Options returns extra Open options for member i (may be nil). It
	// is consulted again on Restart, so option state must be
	// reconstructible — pass constructors, not captured live handles.
	Options func(i int, addr string) []Option
}

// A DomainGroup is a crash-restart test harness: n distributed Domain
// members joined over one simulated network, with partition, heal,
// crash and restart controls that keep each member's durable state
// (GroupConfig.Durability) across process "incarnations". It exists to
// drive chaos schedules against the durability plane — the
// experimental-harness analog of the paper's evaluation runs — and is
// equally usable from application tests.
//
// Methods are safe for concurrent use, but schedules are usually
// sequential: fault, settle, assert.
type DomainGroup struct {
	net   *netsim.Network
	cfg   GroupConfig
	addrs []string

	mu      sync.Mutex
	domains []*Domain // domains[i] == nil while member i is crashed
}

// OpenGroup starts a group of n distributed domains named node-0 …
// node-(n-1), each a peer of all the others. On error, already-opened
// members are closed.
func OpenGroup(ctx context.Context, n int, cfg GroupConfig) (*DomainGroup, error) {
	if n <= 0 {
		return nil, fmt.Errorf("govents: open group: need at least one member, got %d", n)
	}
	g := &DomainGroup{
		net:     netsim.New(cfg.Net),
		cfg:     cfg,
		addrs:   make([]string, n),
		domains: make([]*Domain, n),
	}
	for i := range g.addrs {
		g.addrs[i] = "node-" + strconv.Itoa(i)
	}
	for i := range g.addrs {
		d, err := g.open(ctx, i)
		if err != nil {
			_ = g.Close(context.Background())
			return nil, fmt.Errorf("govents: open group member %d: %w", i, err)
		}
		g.domains[i] = d
	}
	return g, nil
}

// open starts (or re-starts) member i on a fresh endpoint.
func (g *DomainGroup) open(ctx context.Context, i int) (*Domain, error) {
	addr := g.addrs[i]
	ep, err := g.net.NewEndpoint(addr)
	if err != nil {
		return nil, err
	}
	opts := []Option{
		WithTransport(ep),
		WithPeers(g.addrs...),
	}
	if g.cfg.Durability != "" {
		opts = append(opts, WithDurability(filepath.Join(g.cfg.Durability, addr)))
	}
	if g.cfg.Options != nil {
		opts = append(opts, g.cfg.Options(i, addr)...)
	}
	return Open(ctx, addr, opts...)
}

// Len returns the group size.
func (g *DomainGroup) Len() int { return len(g.addrs) }

// Addr returns member i's transport address (node-i).
func (g *DomainGroup) Addr(i int) string { return g.addrs[i] }

// DurabilityDir returns member i's durability directory, or "" when
// the group runs without durability. It stays valid while the member is
// crashed — which is when fault-injection tests want to reach into it.
func (g *DomainGroup) DurabilityDir(i int) string {
	if g.cfg.Durability == "" {
		return ""
	}
	return filepath.Join(g.cfg.Durability, g.addrs[i])
}

// Domain returns member i, or nil while it is crashed.
func (g *DomainGroup) Domain(i int) *Domain {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.domains[i]
}

// Network returns the underlying simulated network, for fault-model
// control not covered by the harness methods.
func (g *DomainGroup) Network() *netsim.Network { return g.net }

// Partition cuts all links between the members in side a and those in
// side b (both directions); members within one side stay connected.
func (g *DomainGroup) Partition(a, b []int) {
	g.net.Partition(g.addrList(a), g.addrList(b))
}

// Heal removes all partitions.
func (g *DomainGroup) Heal() { g.net.Heal() }

// Settle blocks until the network has no in-flight messages, when
// everything received has reached a dispatch lane (bar certified
// deliveries paused for a durable replay), not yet its handlers.
func (g *DomainGroup) Settle() { g.net.Settle() }

func (g *DomainGroup) addrList(is []int) []string {
	out := make([]string, len(is))
	for j, i := range is {
		out[j] = g.addrs[i]
	}
	return out
}

// Crash takes member i down: the network drops its traffic immediately
// (in-flight messages to it are lost) and the member's Domain is closed,
// releasing its durability directory for the next incarnation. Crashing
// a crashed member is an error.
func (g *DomainGroup) Crash(ctx context.Context, i int) error {
	g.mu.Lock()
	d := g.domains[i]
	g.domains[i] = nil
	g.mu.Unlock()
	if d == nil {
		return fmt.Errorf("govents: crash %s: already down", g.addrs[i])
	}
	g.net.Crash(g.addrs[i])
	if err := d.Close(ctx); err != nil {
		return fmt.Errorf("govents: crash %s: %w", g.addrs[i], err)
	}
	return nil
}

// Restart brings a crashed member back as a new incarnation: a fresh
// endpoint under the same address, a fresh Domain over the same
// durability directory. The reborn member re-advertises under a new
// epoch, so surviving members replace the dead incarnation's routing
// state instead of stale-rejecting the restarted one. Restarting a live
// member is an error.
func (g *DomainGroup) Restart(ctx context.Context, i int) (*Domain, error) {
	g.mu.Lock()
	alive := g.domains[i] != nil
	g.mu.Unlock()
	if alive {
		return nil, fmt.Errorf("govents: restart %s: still up", g.addrs[i])
	}
	g.net.Restart(g.addrs[i])
	d, err := g.open(ctx, i)
	if err != nil {
		return nil, fmt.Errorf("govents: restart %s: %w", g.addrs[i], err)
	}
	g.mu.Lock()
	g.domains[i] = d
	g.mu.Unlock()
	return d, nil
}

// Close shuts down every live member and the network. The first error
// wins; shutdown continues regardless.
func (g *DomainGroup) Close(ctx context.Context) error {
	g.mu.Lock()
	domains := make([]*Domain, len(g.domains))
	copy(domains, g.domains)
	for i := range g.domains {
		g.domains[i] = nil
	}
	g.mu.Unlock()

	var firstErr error
	for _, d := range domains {
		if d == nil {
			continue
		}
		if err := d.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := g.net.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
