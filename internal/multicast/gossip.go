package multicast

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"govents/internal/codec"
)

// gossipRandomEdges is the number of uniformly random peers an
// interest-biased gossip round adds per event to the interested fanout.
const gossipRandomEdges = 1

// Gossip implements probabilistic broadcast in the style of lpbcast
// ([EGH+01], which the paper's DACE architecture uses for scalable
// dissemination with weak guarantees, §4.2). Each node buffers recently
// seen events; every gossip period it forwards its active events to a
// few random peers (the fanout); events age out after a fixed number of
// rounds. Delivery is probabilistic: with adequate fanout and rounds the
// protocol delivers to almost all members with high probability, at a
// per-node cost independent of group size.
//
// With an Interest function installed, rumor fanout is biased toward
// peers the routing plane marks interested: each round an event goes to
// up to fanout interested peers plus gossipRandomEdges uniformly random
// peers (the anti-entropy floor that keeps rumors crossing interest
// boundaries and reaching peers whose interest the local view has not
// learned yet). An unevaluable payload fails open to the plain uniform
// fanout. Interest is computed once when the event enters the buffer,
// not per round.
type Gossip struct {
	mux    *Mux
	stream string
	self   string
	opts   Options

	queue *deliveryQueue
	lc    *lifecycle

	members membership

	mu       sync.Mutex
	rng      *rand.Rand
	interest Interest
	observer PruneObserver
	seen     map[string]bool         // event IDs ever seen (dedup)
	active   map[string]*gossipEvent // events still being relayed
}

// Interest maps an event payload to the peers with a matching
// subscriber. ok=false means the payload could not be evaluated; the
// event falls back to uniform random fanout (fail-open).
type Interest func(payload []byte) ([]string, bool)

// gossipEvent is a buffered event with remaining rounds-to-live.
// interested is nil when no interest information is available (no
// Interest function, or it failed open); then rounds use the plain
// uniform fanout.
type gossipEvent struct {
	origin     string
	rounds     int
	payload    []byte
	interested map[string]bool
}

var _ Group = (*Gossip)(nil)

// NewGossip creates a gossip group on the given stream.
func NewGossip(mux *Mux, stream string, deliver Deliver, opts Options) *Gossip {
	opts = opts.withDefaults()
	// The peer choices are seeded by address and stream: the nodes of a
	// domain pick differently, each the same way every run.
	seed := fnv.New64a()
	seed.Write([]byte(mux.Addr() + "\x00" + stream))
	g := &Gossip{
		mux:    mux,
		stream: stream,
		self:   mux.Addr(),
		opts:   opts,
		queue:  newDeliveryQueue(deliver),
		lc:     newLifecycle(),
		rng:    rand.New(rand.NewSource(int64(seed.Sum64()))),
		seen:   make(map[string]bool),
		active: make(map[string]*gossipEvent),
	}
	mux.Handle(stream, g.onMessage)
	g.lc.goTick(opts.GossipPeriod, g.round)
	return g
}

// SetMembers implements Group.
func (g *Gossip) SetMembers(members []string) { g.members.set(members) }

// SetInterest installs the interest function biasing rumor fanout.
func (g *Gossip) SetInterest(fn Interest) {
	g.mu.Lock()
	g.interest = fn
	g.mu.Unlock()
}

// SetPruneObserver installs the pruning-counters sink.
func (g *Gossip) SetPruneObserver(obs PruneObserver) {
	g.mu.Lock()
	g.observer = obs
	g.mu.Unlock()
}

// Broadcast implements Group: the event is delivered locally and enters
// the gossip buffer; dissemination happens over subsequent rounds.
func (g *Gossip) Broadcast(payload []byte) error {
	if g.lc.closed() {
		return fmt.Errorf("multicast: gossip %s: closed", g.stream)
	}
	id := codec.NewID()
	// A rumor travels in a batch; one that even a batch of itself alone
	// cannot carry would be dropped every round. With no other member
	// there is no round to drop it from.
	if remote(g.members.snapshot(), g.self) {
		size, err := messageSize(&message{Kind: kindGossip, Origin: g.self, ID: id, Rounds: uint8(g.opts.GossipRounds), Payload: payload})
		if err == nil {
			_, err = frameLen(g.stream, batchHeader+size)
		}
		if err != nil {
			return fmt.Errorf("multicast: gossip %s: %w", g.stream, err)
		}
	}
	interested := g.computeInterest(payload)
	g.mu.Lock()
	g.seen[id] = true
	g.active[id] = &gossipEvent{origin: g.self, rounds: g.opts.GossipRounds, payload: payload, interested: interested}
	g.mu.Unlock()
	g.queue.push(g.self, payload)
	return nil
}

// computeInterest evaluates the interest function outside the gossip
// lock (it typically decodes the payload and consults the routing
// table). nil means no information: uniform fanout.
func (g *Gossip) computeInterest(payload []byte) map[string]bool {
	g.mu.Lock()
	fn := g.interest
	g.mu.Unlock()
	if fn == nil {
		return nil
	}
	dests, ok := fn(payload)
	if !ok {
		return nil
	}
	set := make(map[string]bool, len(dests))
	for _, d := range dests {
		set[d] = true
	}
	return set
}

// Close implements Group.
func (g *Gossip) Close() error {
	g.mux.Unhandle(g.stream)
	g.lc.close()
	g.queue.close()
	return nil
}

// round performs one gossip round: pick each active event's target peers
// (interest-biased when interest information is available, uniformly
// random otherwise), batch events per peer, as many batches as the
// frames they fill, send, then age the events.
func (g *Gossip) round() {
	others := g.members.others(g.self)
	if len(others) == 0 {
		return
	}

	g.mu.Lock()
	perPeer := make(map[string][]*message)
	var pruned uint64
	for id, ev := range g.active {
		targets := g.targetsLocked(ev, others)
		if baseline := min(g.opts.GossipFanout, len(others)); ev.interested != nil && len(targets) < baseline {
			pruned += uint64(baseline - len(targets))
		}
		m := &message{
			Kind:    kindGossip,
			Origin:  ev.origin,
			ID:      id,
			Rounds:  uint8(ev.rounds),
			Payload: ev.payload,
		}
		for _, peer := range targets {
			perPeer[peer] = append(perPeer[peer], m)
		}
		ev.rounds--
		if ev.rounds <= 0 {
			delete(g.active, id) // infect-and-die: stop relaying
		}
	}
	obs := g.observer
	g.mu.Unlock()

	if obs != nil && pruned > 0 {
		obs(pruned, 0)
	}
	for peer, batch := range perPeer {
		for len(batch) > 0 {
			n := batchFits(g.stream, batch)
			if wire, err := encodeBatch(batch[:n]); err == nil {
				_ = g.mux.Send(peer, g.stream, wire)
			}
			batch = batch[n:]
		}
	}
}

// targetsLocked selects one event's target peers for this round. With no
// interest information: up to fanout uniformly random peers. With
// interest information: up to fanout interested peers plus up to
// gossipRandomEdges random peers not already picked. Caller holds g.mu.
func (g *Gossip) targetsLocked(ev *gossipEvent, others []string) []string {
	if ev.interested == nil {
		return g.pickLocked(others, g.opts.GossipFanout, nil)
	}
	interested := make([]string, 0, len(others))
	for _, p := range others {
		if ev.interested[p] {
			interested = append(interested, p)
		}
	}
	targets := g.pickLocked(interested, g.opts.GossipFanout, nil)
	taken := make(map[string]bool, len(targets))
	for _, p := range targets {
		taken[p] = true
	}
	return append(targets, g.pickLocked(others, gossipRandomEdges, taken)...)
}

// pickLocked returns up to n random members of pool not in exclude. The
// result is always freshly allocated. Caller holds g.mu.
func (g *Gossip) pickLocked(pool []string, n int, exclude map[string]bool) []string {
	candidates := make([]string, 0, len(pool))
	for _, p := range pool {
		if !exclude[p] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) > n {
		g.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		candidates = candidates[:n]
	}
	return candidates
}

func (g *Gossip) onMessage(_ string, data []byte) {
	batch, err := decodeBatch(data)
	if err != nil {
		return
	}
	for i := range batch {
		m := &batch[i]
		if m.Kind != kindGossip {
			continue
		}
		g.mu.Lock()
		if g.seen[m.ID] {
			g.mu.Unlock()
			continue
		}
		g.seen[m.ID] = true
		rounds := int(m.Rounds) - 1
		g.mu.Unlock()
		if rounds > 0 {
			interested := g.computeInterest(m.Payload)
			g.mu.Lock()
			g.active[m.ID] = &gossipEvent{origin: m.Origin, rounds: rounds, payload: m.Payload, interested: interested}
			g.mu.Unlock()
		}
		g.queue.push(m.Origin, m.Payload)
	}
}

// batchHeader is what a batch of one adds to its message: the count and
// the message's length.
const batchHeader = 2 + 4

// batchFits returns how many of msgs, from the front and at least one,
// one batch on stream takes: as many as its frame carries, and no more
// than the count's 65,535.
func batchFits(stream string, msgs []*message) int {
	body := 2
	for n, m := range msgs {
		size, _ := messageSize(m) // checked when the rumor was published or read
		body += 4 + size
		if _, err := frameLen(stream, body); n == 0xFFFF || err != nil && n > 0 {
			return n
		}
	}
	return len(msgs)
}

// encodeBatch frames a slice of messages as [count u16] ([len u32][msg])*.
func encodeBatch(batch []*message) ([]byte, error) {
	if len(batch) > 0xFFFF {
		return nil, fmt.Errorf("multicast: gossip batch too large (%d)", len(batch))
	}
	out := binary.BigEndian.AppendUint16(nil, uint16(len(batch)))
	for _, m := range batch {
		size, err := messageSize(m)
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint32(out, uint32(size))
		out = appendMessage(out, m)
	}
	return out, nil
}

// decodeBatch parses a gossip batch. The messages' payloads alias data.
func decodeBatch(data []byte) ([]message, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("multicast: short gossip batch")
	}
	count := int(binary.BigEndian.Uint16(data[:2]))
	off := 2
	// Every event takes at least its four-byte length, which bounds the
	// slice by the input before it is allocated.
	if count > (len(data)-off)/4 {
		return nil, fmt.Errorf("multicast: truncated gossip batch")
	}
	out := make([]message, count)
	for i := range out {
		if off+4 > len(data) {
			return nil, fmt.Errorf("multicast: truncated gossip batch")
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if n > len(data)-off {
			return nil, fmt.Errorf("multicast: truncated gossip event")
		}
		if err := decodeMessage(data[off:off+n], &out[i]); err != nil {
			return nil, err
		}
		off += n
	}
	return out, nil
}
