// Package dace implements the Distributed Asynchronous Computing
// Environment of the paper's §4.2: the distributed dissemination
// substrate beneath the publish/subscribe engine.
//
// Its architecture follows the paper's class-based dissemination:
//
//   - Every obvent class is mapped to a dissemination channel (a
//     "multicast class"), realized as a multicast.Group on a stream
//     named after the class, with the protocol chosen by the class's
//     resolved QoS semantics (besteffort, reliable, fifo, causal,
//     total-order, certified).
//
//   - The control plane is reflexive: subscription advertisements are
//     themselves obvents, published on a dedicated control channel,
//     "allowing distributed processes to learn about other, possibly
//     new, multicast classes". Advertisements come in two forms:
//     idempotent full snapshots and deltas (add/remove per subscription
//     ID) on the node's previous ad. A node stamps its ads on the
//     control link in their sequence order, and the link hands one
//     sender's frames over in the order they were stamped, so every
//     peer applies a node's ads in sequence order.
//
//   - Remote filters travel in the advertisements; with publisher-side
//     filter placement, a publishing node evaluates the filters of each
//     destination before spending network bandwidth on it (paper §2.3.2
//     and §3.3.3: filters are applied "at a more favourable stage
//     (e.g., a remote host) to reduce network load").
//
// The advertisement stream feeds the node's routing plane (package
// routing), which compiles it into per-class compound matchers whose
// match IDs are destination nodes:
//
//	control channel (subscription ads: snapshots + deltas)
//	        │ onControl (decode outside locks)
//	        ▼
//	routing.Table ── per-node snapshots, in sequence order
//	        │ compiled lazily per published class
//	        ▼
//	one matching.Compound per class (one entry per node)
//	        │ one evaluation per published event
//	        ▼
//	destination fan-out: BroadcastTo(prunedNodes, payload)
//
// so publishing an unordered event costs one indexed compound
// evaluation total instead of one filter interpretation per remote
// subscription.
//
// Ordered classes are interest-aware too (unless
// Config.NoOrderedPruning): FIFO and Causal publishers ship data frames
// to interested nodes only, which costs the rest nothing because order
// rides each destination's own link sequence (Causal alone follows up
// with a clock marker); Total publications still route to the
// sequencer, which filters as it broadcasts, every member seeing a
// subsequence of its one order. All pruning fails open — an
// unevaluable event is shipped to every candidate, each subscriber's
// local pass deciding — so delivery contracts are preserved and only
// bandwidth changes. Certified classes already address their durable
// subscribers explicitly.
package dace

import (
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"govents/internal/clock"
	"govents/internal/codec"
	"govents/internal/core"
	"govents/internal/durable"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/routing"
	"govents/internal/telemetry"
)

// Placement selects where remote filters are evaluated.
type Placement int

const (
	// AtSubscriber ships every matching-typed obvent to the
	// subscriber's node, which filters locally (the unoptimized
	// baseline).
	AtSubscriber Placement = iota + 1
	// AtPublisher evaluates migrated filters at the publishing node
	// and sends only to nodes with at least one passing subscription,
	// saving bandwidth (paper §2.3.2). Unordered classes prune per
	// message; ordered classes prune through the interest-aware
	// multicast protocols (see Config.NoOrderedPruning);
	// certified classes address durable subscribers explicitly.
	AtPublisher
)

// Config tunes a Node.
type Config struct {
	// Placement selects filter placement (default AtSubscriber).
	Placement Placement
	// Multicast tunes the protocol timers.
	Multicast multicast.Options
	// Durable, when set, keeps each certified class's state in segment
	// logs of its own — an outbox, and an inbox that stages an incoming
	// event BEFORE it is acknowledged to the publisher — so that it
	// survives crash-restart, not just disconnect. Nil: see certStores.
	Durable *durable.Manager
	// AdTTL enables ad-stream GC: the node re-advertises its
	// subscription state as a liveness heartbeat (several times per
	// TTL) and drops any peer's routing entries once that peer has
	// been silent for AdTTL, even without a membership change — a dead
	// node must stop being owed events, certified deliveries and
	// routing-table memory. Zero disables both heartbeats and expiry.
	// Set it uniformly across the domain: a node with AdTTL unset
	// sends no heartbeats and would be wrongly expired by peers that
	// have it set.
	AdTTL time.Duration
	// NoOrderedPruning disables interest-aware pruning of the ordered
	// (FIFO/Causal/Total) classes, reverting them to full
	// group broadcasts with subscriber-side filtering. The zero value
	// keeps pruning on: data frames go only to nodes the routing plane
	// marks interested (fail-open — an unevaluable event or unknown
	// node counts as interested). The rest are sent nothing, except by
	// causal classes, whose publishers follow up with an amortized
	// clock marker; each class's ordering contract is preserved.
	NoOrderedPruning bool
	// Telemetry is the node's telemetry plane, shared with the engine
	// above it so publisher-side stages (publish→route, route→write) and
	// receiver-side stages (wire→lane) land in one place. Nil disables
	// substrate telemetry.
	Telemetry *telemetry.Plane
	// Logger receives substrate diagnostics that have no error-return
	// path (undecodable data frames, rejected advertisements). Default:
	// discard.
	Logger *slog.Logger
	// Clock is the node's one clock: the multicast groups' timers (it
	// replaces Multicast.Clock), the heartbeat and the silence AdTTL
	// measures run on it. Nil means the wall clock.
	Clock clock.Clock
}

// Node is a DACE process: it owns the dissemination channels of one
// address space and implements core.Disseminator.
type Node struct {
	mux  *multicast.Mux
	self string
	reg  *obvent.Registry
	cdc  *codec.Codec
	cfg  Config
	tele *telemetry.Plane // Config.Telemetry (nil = disabled)
	log  *slog.Logger     // Config.Logger (never nil; default discard)

	// decodeErrors counts data frames that did not decode as an envelope
	// (DecodeErrors).
	decodeErrors atomic.Uint64

	// routes is the routing plane: every node's advertised
	// subscriptions (including our own, under our address) compiled
	// into per-class destination matchers. It has its own internal
	// locking, and is read under n.mu only to set up a certified
	// group's view (short reads; its lock never waits on n.mu).
	routes *routing.Table

	mu     sync.Mutex
	peers  []string
	joined map[string]time.Time // when each member of peers entered the view
	sink   func(*codec.Envelope)
	groups map[groupKey]multicast.Group
	closed bool

	// epoch is this process incarnation's boot stamp, carried in every
	// advertisement so peers can tell a restarted node (whose ad
	// sequence restarts at 1) from a stale retransmission of its
	// previous life. See routing.Table.NoteEpoch.
	epoch int64

	// adMu makes taking an advertisement's sequence, applying it to our
	// own routing table and stamping it on the control link one step, so
	// that our table and every peer's meet our ads in sequence order. It
	// is taken before mu.
	adMu         sync.Mutex
	adSeq        uint64                           // our advertisement sequence number
	lastAdv      map[string]core.SubscriptionInfo // our active subscriptions as of ad adSeq, by ID
	adsSinceSnap int                              // deltas sent since the last full snapshot

	control *multicast.Reliable

	// certGen is the routing-table generation the certified groups'
	// subscriber sets are current with; certMu serializes their refresh
	// (an older view must not land on a group after a newer one).
	certMu  sync.Mutex
	certGen atomic.Uint64

	// hb is the ad-TTL heartbeat (never armed when AdTTL is unset).
	hb clock.Job
	// awaitEnd refreshes the certified groups when an unheard member's
	// grace runs out (awaitedLocked).
	awaitEnd clock.Job

	// destBuf pools destination scratch so routing a publication does
	// not allocate per event.
	destBuf sync.Pool
}

var _ core.Disseminator = (*Node)(nil)

// snapshotEvery bounds how many consecutive delta ads may be sent
// before a full snapshot is forced, so a node that somehow lost the
// chain resynchronizes within a bounded number of changes.
const snapshotEvery = 8

// NewNode creates a DACE node over a transport endpoint. The registry
// must be shared with the engine created on top (use core.WithRegistry).
func NewNode(tr netsim.Transport, reg *obvent.Registry, cfg Config) *Node {
	if cfg.Placement == 0 {
		cfg.Placement = AtSubscriber
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	cfg.Multicast.Clock = cfg.Clock
	mux := multicast.NewMux(tr)
	n := &Node{
		mux:     mux,
		self:    mux.Addr(),
		reg:     reg,
		cdc:     codec.New(reg),
		cfg:     cfg,
		routes:  routing.NewTable(reg),
		groups:  make(map[groupKey]multicast.Group),
		lastAdv: make(map[string]core.SubscriptionInfo),
	}
	n.destBuf.New = func() any { return &destScratch{} }
	n.epoch = time.Now().UnixNano()
	n.tele = cfg.Telemetry
	n.log = cfg.Logger
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	if cfg.Multicast.Logger == nil {
		// The multicast groups inherit the node's logger unless the
		// caller wired their own. n.cfg (used by groupLocked for the
		// per-class groups) and the local cfg (used for the control
		// group below) must both see it.
		cfg.Multicast.Logger = n.log
		n.cfg.Multicast.Logger = n.log
	}
	reg.MustRegister(subscriptionAd{})
	n.control = multicast.NewReliable(mux, "dace/ctrl", n.onControl, cfg.Multicast)
	mux.SetFallback(n.onUnknownStream)
	n.awaitEnd.Init(cfg.Clock, n.refreshCertSubscribers)
	if cfg.AdTTL > 0 {
		n.routes.SetAdTTL(cfg.AdTTL, cfg.Clock)
		n.hb.Init(cfg.Clock, n.heartbeat)
		n.hb.Reset(n.heartbeatPeriod())
	}
	if cfg.Durable != nil {
		// Recovered certified classes resume retransmission immediately:
		// a restarted publisher owes its durable subscribers the pending
		// outbox backlog even if it never publishes again, so the groups
		// (and their links' timers) must not wait for traffic.
		for _, class := range cfg.Durable.Classes() {
			n.group("cert", class)
		}
	}
	return n
}

// heartbeat re-advertises this node's subscription state, several
// times per TTL (so peers never expire a live node), expires peers
// silent past the TTL, and re-arms its timer. Heartbeat ads that change
// nothing are applied by receivers as liveness refreshes without
// invalidating compiled plans. Expired peers also leave the multicast
// memberships, so the reliable protocols stop resending to dead
// destinations.
func (n *Node) heartbeat() {
	n.advertise(nil, nil, false)
	if expired := n.routes.ExpireSilent(n.self); len(expired) > 0 {
		n.dropPeers(expired)
	}
	n.hb.Reset(n.heartbeatPeriod())
}

// heartbeatPeriod is a third of the TTL.
func (n *Node) heartbeatPeriod() time.Duration {
	if p := n.cfg.AdTTL / 3; p > 0 {
		return p
	}
	return time.Millisecond
}

// dropPeers removes TTL-expired nodes from the domain membership
// without a SetPeers call: a dead node must stop being owed
// retransmissions by every multicast channel, or the reliable
// protocols' outboxes grow (and the network carries resends) forever.
func (n *Node) dropPeers(expired []string) {
	dead := make(map[string]bool, len(expired))
	for _, p := range expired {
		dead[p] = true
	}
	n.mu.Lock()
	kept := n.peers[:0]
	for _, p := range n.peers {
		if !dead[p] {
			kept = append(kept, p)
		} else {
			delete(n.joined, p)
		}
	}
	n.peers = kept
	peers := append([]string(nil), n.peers...)
	groups := n.groupsSnapshotLocked()
	n.mu.Unlock()
	n.control.SetMembers(peers)
	n.setGroupsMembers(groups, peers)
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.self }

// Clock returns the node's clock.
func (n *Node) Clock() clock.Clock { return n.cfg.Clock }

// OpenLink opens a reliable link on the node's multiplexer for a stream
// outside the dace/ channels: its membership is the node's view, with
// SetPeers and AdTTL expiry, and it closes with the node.
func (n *Node) OpenLink(stream string, deliver multicast.Deliver) *multicast.Reliable {
	g := multicast.NewReliable(n.mux, stream, deliver, n.cfg.Multicast)
	n.mu.Lock()
	defer n.mu.Unlock()
	g.SetMembers(n.peers)
	n.groups[groupKey{proto: stream}] = g
	return g
}

// Registry returns the node's obvent type registry.
func (n *Node) Registry() *obvent.Registry { return n.reg }

// SetPeers installs the domain membership (all node addresses,
// including this one) and re-advertises local subscriptions to it.
// Nodes no longer in the membership are dropped from the routing table:
// a departed node must stop being owed events and certified deliveries.
func (n *Node) SetPeers(peers []string) {
	n.mu.Lock()
	n.peers = append([]string(nil), peers...)
	now, joined := n.cfg.Clock.Now(), make(map[string]time.Time, len(peers))
	for _, p := range peers {
		if at, ok := n.joined[p]; ok {
			joined[p] = at
		} else {
			joined[p] = now
		}
	}
	n.joined = joined
	groups := n.groupsSnapshotLocked()
	n.mu.Unlock()
	n.routes.RetainNodes(append([]string{n.self}, peers...))
	n.control.SetMembers(peers)
	n.setGroupsMembers(groups, peers)
	// Full snapshot: a joiner gaining membership has no delta base.
	n.advertise(nil, nil, true)
}

// groupsSnapshotLocked snapshots the live groups with their keys.
func (n *Node) groupsSnapshotLocked() map[groupKey]multicast.Group {
	groups := make(map[groupKey]multicast.Group, len(n.groups))
	for key, g := range n.groups {
		groups[key] = g
	}
	return groups
}

// setGroupsMembers pushes a membership change to every group. Certified
// groups are special-cased: their membership is the set of durable
// subscribers from the routing plane, not the raw peer list — treating
// every peer address as a durable consumer would register phantom
// outbox consumers that never acknowledge, pinning the durable outbox's
// GC frontier at zero forever.
func (n *Node) setGroupsMembers(groups map[groupKey]multicast.Group, peers []string) {
	for _, g := range groups {
		if _, ok := g.(*multicast.Certified); !ok {
			g.SetMembers(peers)
		}
	}
	n.refreshCertSubscribers()
}

// SetSink implements core.Disseminator. The sink's envelope is a
// channel's scratch, rewritten by the channel's next delivery: it is
// valid for the call only, and a sink copies what it keeps.
func (n *Node) SetSink(sink func(*codec.Envelope)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sink = sink
}

// Close implements core.Disseminator.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := make([]multicast.Group, 0, len(n.groups))
	for _, g := range n.groups {
		groups = append(groups, g)
	}
	n.mu.Unlock()
	n.hb.Stop()
	n.awaitEnd.Stop()
	for _, g := range groups {
		_ = g.Close()
	}
	return n.control.Close()
}

// --- class channels ---

// protoFor maps resolved semantics to a protocol tag.
func (n *Node) protoFor(env *codec.Envelope) string {
	switch {
	case env.Reliability == obvent.CertifiedDelivery:
		return "cert"
	case env.Ordering == obvent.Total:
		return "total"
	case env.Ordering == obvent.Causal:
		return "causal"
	case env.Ordering == obvent.FIFO:
		return "fifo"
	case env.Reliability == obvent.ReliableDelivery:
		return "rel"
	default:
		return "be"
	}
}

// streamName builds the per-class channel name — the paper's multicast
// class (§4.2).
func streamName(proto, class string) string {
	return "dace/" + proto + "/" + class
}

// groupKey names a channel the way a publish does, so that finding an
// existing one does not build its stream name.
type groupKey struct{ proto, class string }

// group returns (creating lazily) the channel for a proto/class pair.
func (n *Node) group(proto, class string) multicast.Group {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.groupLocked(groupKey{proto, class})
}

func (n *Node) groupLocked(key groupKey) multicast.Group {
	if g, ok := n.groups[key]; ok {
		return g
	}
	proto, class := key.proto, key.class
	stream := streamName(proto, class)
	// A channel carries one class, so its frames need not name it.
	var scratch codec.Envelope // see onData
	var deliver multicast.DeliverFrom = func(origin string, epoch uint64, payload []byte) {
		n.onData(class, origin, epoch, payload, &scratch)
	}
	prune := !n.cfg.NoOrderedPruning
	var g multicast.Group
	switch proto {
	case "cert":
		log, in := n.certStores(class)
		c := multicast.NewCertified(n.mux, stream, log, in, deliver, n.cfg.Multicast)
		// Certified membership is the durable-subscriber set, never the
		// raw peer list (see setGroupsMembers).
		n.setCertView(c, class, n.awaitedLocked())
		g = c
	case "total":
		t := multicast.NewTotal(n.mux, stream, n.sequencerLocked(), deliver, n.cfg.Multicast)
		if prune {
			t.SetPlanner(n.plannerFor(class))
			t.SetPruneObserver(n.pruneObserver(class))
		}
		g = t
	case "causal":
		c := multicast.NewCausal(n.mux, stream, deliver, n.cfg.Multicast)
		if prune {
			c.SetPruneObserver(n.pruneObserver(class))
		}
		g = c
	case "fifo":
		f := multicast.NewFIFO(n.mux, stream, deliver, n.cfg.Multicast)
		if prune {
			f.SetPruneObserver(n.pruneObserver(class))
		}
		g = f
	case "rel":
		g = multicast.NewReliable(n.mux, stream, deliver, n.cfg.Multicast)
	default:
		g = multicast.NewBestEffort(n.mux, stream, deliver)
	}
	if proto != "cert" {
		g.SetMembers(n.peers)
	}
	n.groups[key] = g
	return g
}

// pruneObserver funnels a group's pruning counters into the routing
// table's per-class stats.
func (n *Node) pruneObserver(class string) multicast.PruneObserver {
	return func(prunedSends, skipFrames uint64) {
		n.routes.NotePrunedSends(class, prunedSends)
		n.routes.NoteSkipFrames(class, skipFrames)
	}
}

// plannerFor builds the sequencer-side interest filter of a total-order
// class: stamped payloads are routed like any publication and go out
// verbatim to the interested nodes. Any failure to evaluate reports
// ok=false, failing open to a full broadcast.
func (n *Node) plannerFor(class string) multicast.Planner {
	return func(payload []byte) ([]multicast.Send, bool) {
		buf := n.destBuf.Get().(*destScratch)
		defer n.putDest(buf)
		// env is read for routing and dropped: the publisher is not missed.
		env := &buf.env
		if err := openInto(env, class, "", 0, payload); err != nil || env.Type != class {
			return nil, false
		}
		dests := n.destinationsFor(env, buf, buf.ids[:0])
		var sends []multicast.Send
		if len(dests) > 0 {
			// The multicast layer may use the Send after this node's
			// scratch is reused: hand it its own copy.
			sends = []multicast.Send{{Dests: append([]string(nil), dests...), Payload: payload}}
		}
		buf.ids = dests[:0]
		return sends, true
	}
}

// sequencerLocked returns the domain's total-order sequencer: the
// lexicographically smallest peer address, on which all correctly
// configured nodes agree.
func (n *Node) sequencerLocked() string {
	if len(n.peers) == 0 {
		return n.self
	}
	seq := n.peers[0]
	for _, p := range n.peers[1:] {
		if p < seq {
			seq = p
		}
	}
	return seq
}

// onUnknownStream lazily creates the group for a class channel the
// first time a frame for it arrives; the multiplexer then hands the
// frame to it.
func (n *Node) onUnknownStream(stream string) {
	// Auxiliary streams (the total-order "!ord" request stream) belong
	// to the group of their base stream; creating the base group also
	// registers the auxiliary handler.
	base := strings.TrimSuffix(stream, "!ord")
	parts := strings.SplitN(base, "/", 3)
	if len(parts) != 3 || parts[0] != "dace" {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.groupLocked(groupKey{parts[1], parts[2]})
	n.mu.Unlock()
}

// --- publishing ---

// PublishEnvelope implements core.Disseminator. It names env (Name) by
// its class's channel: the channel's incarnation and count
// (multicast.Group.NextName). The telemetry plane times two
// publisher-side stages around each protocol branch:
// publish→route (entry until the destination set or outbound frame is
// resolved, closed by markRoute) and route→write (until the multicast
// send hands off to the transport, closed by markWrite). Every group
// copies what it keeps of the record (a link, an outbox, a delivery to
// this node that waits), and so does the engine's lane, so the engine's
// next publication may encode into the same buffer.
func (n *Node) PublishEnvelope(env *codec.Envelope) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("dace: node %s closed", n.self)
	}
	n.mu.Unlock()

	var t0 int64
	if n.tele.Enabled() {
		t0 = telemetry.Now()
	}
	proto := n.protoFor(env)
	g := n.group(proto, env.Type)
	inc, count := g.NextName()
	env.Name = codec.Name{Inc: inc, N: count}

	switch proto {
	case "cert":
		// Certified classes address durable subscribers explicitly: the
		// routing plane's view, taken again only if the table has moved.
		cert := g.(*multicast.Certified)
		if n.routes.Gen() != n.certGen.Load() {
			n.refreshCertSubscribers()
		}
		payload, err := n.seal(env, proto)
		if err != nil {
			return err
		}
		t1 := n.markRoute(t0)
		// The stored record spells the name: the certified event identity
		// end to end. The outbox, the staging inbox and the engine's
		// delivery acknowledgement key the name itself.
		err = cert.Broadcast(payload)
		n.markWrite(t1)
		return err
	case "be", "rel":
		// Unordered classes support per-message destination pruning.
		if tg, ok := g.(interface {
			BroadcastTo(dests []string, payload []byte) error
		}); ok {
			return n.publishRouted(env, proto, t0, func(s []multicast.Send) error {
				return tg.BroadcastTo(s[0].Dests, s[0].Payload)
			})
		}
	case "fifo", "causal":
		// Interest-aware ordered classes: data frames only to nodes the
		// routing plane marks interested. Order rides the per-destination
		// link sequence, so the rest are owed nothing (causal sends them
		// its clock on the next flush).
		if sp, ok := g.(interface {
			BroadcastSplit(sends []multicast.Send) error
		}); ok && !n.cfg.NoOrderedPruning {
			return n.publishRouted(env, proto, t0, sp.BroadcastSplit)
		}
	}
	// Everything else is one frame to the whole group: total order routes
	// to the sequencer, which filters after stamping (plannerFor), and
	// ordered classes with pruning off broadcast by definition.
	payload, err := n.seal(env, proto)
	if err != nil {
		return err
	}
	t1 := n.markRoute(t0)
	err = g.Broadcast(payload)
	n.markWrite(t1)
	return err
}

// publishRouted resolves env's destination set, marshals it once and
// hands both to send as one Send (a targeted or split broadcast, which
// copies what it keeps of the destinations and of the slice, so the
// pooled scratch is reused afterwards).
func (n *Node) publishRouted(env *codec.Envelope, proto string, t0 int64, send func([]multicast.Send) error) error {
	buf := n.destBuf.Get().(*destScratch)
	dests := n.destinationsFor(env, buf, buf.ids[:0])
	t1 := n.markRoute(t0)
	payload, err := n.seal(env, proto)
	if err == nil {
		buf.send[0] = multicast.Send{Dests: dests, Payload: payload}
		err = send(buf.send[:])
		buf.send[0] = multicast.Send{}
	}
	n.markWrite(t1)
	buf.ids = dests[:0]
	n.destBuf.Put(buf)
	return err
}

// seal marshals env for its class's channel, proto's. On a link the
// record leaves out what the link already says: the class, which the
// channel names; the publisher when it is this node, which the multicast
// origin names; and the name's incarnation where a numbered link from
// this node carries the frame, whose binding names it (best effort has
// no epochs, and total order reaches the members relayed by the
// sequencer). An empty string and a zero incarnation are legal fields,
// so the layout is one and openInto puts all three back. The name
// travels as its count (codec.SealLink). A certified class's record is
// sealed in full, the name as its text: the outbox and the subscriber's
// inbox keep it past the link and the address, and replay reads it with
// neither. env is not written to; an envelope fresh from Encode gets its
// header written in front of its payload, which is not copied
// (codec.Seal).
func (n *Node) seal(env *codec.Envelope, proto string) ([]byte, error) {
	if proto == "cert" {
		return codec.Seal(env)
	}
	link := *env
	link.Type = ""
	if link.Publisher == n.self {
		link.Publisher = ""
	}
	switch proto {
	case "fifo", "causal", "rel":
		link.Name.Inc = 0
	}
	return codec.SealLink(&link)
}

// openInto decodes a record that arrived on class's channel from origin,
// whose group's epoch the link named (0 if it did not), into env and
// restores what seal left out: dace's one decode. A class or publisher
// the record spells as the binding names it is the binding's string, so
// a stored record of a certified class opens with no copy of its header.
// The envelope's payload aliases the record, which is valid for the
// caller's call only (a transport's frame, a group's copy, a buffer a
// local publisher sealed): whatever keeps the envelope past it copies
// the payload. On error env is left zero.
func openInto(env *codec.Envelope, class, origin string, epoch uint64, record []byte) error {
	if err := codec.UnmarshalInto(env, record, class, origin); err != nil {
		return err
	}
	if env.Name.Inc == 0 {
		env.Name.Inc = epoch
	}
	if env.Type == "" {
		env.Type = class
	}
	if env.Publisher == "" {
		env.Publisher = origin
	}
	return nil
}

// markRoute closes the publish→route span opened at t0 (0 = telemetry
// was off at entry) and opens route→write, returning its start.
func (n *Node) markRoute(t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	now := telemetry.Now()
	n.tele.Record(uint32(t0), telemetry.StagePublishRoute, now-t0)
	return now
}

// markWrite closes the route→write span opened by markRoute.
func (n *Node) markWrite(t1 int64) {
	if t1 == 0 {
		return
	}
	n.tele.Record(uint32(t1), telemetry.StageRouteWrite, telemetry.Now()-t1)
}

// destScratch is the pooled per-publication destination buffer. The
// closure is created once per scratch and captures the scratch pointer
// (stable for the scratch's lifetime), so routing a publication
// allocates neither a closure nor decode state, nor a box for the
// decoded event; src and value are reset after every event. env is the
// envelope a sequencer's planner decodes a record into.
type destScratch struct {
	ids   []string
	send  [1]multicast.Send // the one Send of a routed publication
	src   codec.CloneSource
	value any // the envelope's own Value, routed on instead of a decode
	full  func() (any, error)
	env   codec.Envelope
}

// putDest pools a scratch with its envelope zeroed, pinning no record.
func (n *Node) putDest(buf *destScratch) {
	buf.env = codec.Envelope{}
	n.destBuf.Put(buf)
}

// destinationsFor appends the nodes owed a copy of env: nodes hosting
// at least one active subscription whose type matches, further pruned
// by publisher-side compound-filter evaluation when Placement is
// AtPublisher — one indexed evaluation per event against the class's
// compiled routing plan, not one interpretation per remote
// subscription. The plan evaluates the value the envelope was encoded
// from when it carries it (codec.Envelope.Value), with no decode, and
// otherwise the payload decoded in place (CloneSource.Value), with no
// box. An undecodable event fails open to all candidates (each
// subscriber's local pass decides).
func (n *Node) destinationsFor(env *codec.Envelope, buf *destScratch, dst []string) []string {
	if n.cfg.Placement != AtPublisher {
		return n.routes.NodesFor(env.Type, dst)
	}
	if err := n.cdc.SourceInto(env, &buf.src); err != nil {
		return n.routes.Destinations(env.Type, nil, dst)
	}
	if buf.full == nil {
		buf.full = func() (any, error) {
			if buf.value != nil {
				return buf.value, nil
			}
			return buf.src.Value()
		}
	}
	buf.value = env.Value()
	wp, payload, _ := buf.src.Wire()
	dst = n.routes.DestinationsWire(env.Type, wp, payload, buf.full, dst)
	buf.src.Reset()
	buf.value = nil
	return dst
}

// RoutingStats returns the node's cumulative routing-plane counters
// (advertisement ingestion plus per-event routing, folded over all
// classes).
func (n *Node) RoutingStats() routing.Stats { return n.routes.Stats() }

// RoutingStatsByClass breaks the routing counters out per obvent class.
func (n *Node) RoutingStatsByClass() map[string]routing.Stats { return n.routes.StatsByClass() }

// DecodeErrors counts the data frames this node dropped because they did
// not decode as an envelope; they never reach the engine, whose
// DispatchStats.DecodeErrors the domain folds this into.
func (n *Node) DecodeErrors() uint64 { return n.decodeErrors.Load() }

// onData receives a payload of class's channel, published by origin's
// group of the given epoch, and hands the envelope to the engine. The
// wire→lane stage spans the envelope decode plus the sink call (the sink
// is Engine.deliver, which returns once its lane holds a copy). env is
// the channel's scratch, zeroed once the sink returns, since the bytes
// it names are valid for the call only; one per channel is safe because
// a group makes one delivery call at a time (multicast.DeliverFrom).
func (n *Node) onData(class, origin string, epoch uint64, payload []byte, env *codec.Envelope) {
	var t0 int64
	if n.tele.Enabled() {
		t0 = telemetry.Now()
	}
	if err := openInto(env, class, origin, epoch, payload); err != nil {
		// An undecodable frame was a silent vanish: make it count and
		// make it loggable.
		n.decodeErrors.Add(1)
		n.tele.Trace("", class, telemetry.StageWireLane, 0, telemetry.ReasonDecodeError.String())
		n.log.Warn("dace: dropping undecodable data frame",
			"class", class, "origin", origin, "bytes", len(payload), "err", err)
		return
	}
	n.mu.Lock()
	sink := n.sink
	n.mu.Unlock()
	if sink != nil {
		sink(env)
		if t0 != 0 {
			n.tele.Record(uint32(t0), telemetry.StageWireLane, telemetry.Now()-t0)
		}
	}
	*env = codec.Envelope{}
}

// --- control plane ---

// SubscriptionChanged implements core.Disseminator: the change is
// advertised, and applied to what this node holds, at the cost of the
// change.
func (n *Node) SubscriptionChanged(active []core.SubscriptionInfo, removed ...string) error {
	n.advertise(active, removed, false)
	return nil
}

// advertise folds a change of this node's subscriptions (none for a
// heartbeat or a re-introduction) into lastAdv and publishes the result
// on the control channel — as an obvent, per the reflexive design of
// §4.2 — and into the local routing table under our own address, the
// way a peer applies it. When the change is smaller than the set, the
// ad is a delta (add/remove per subscription ID); a full snapshot is
// forced by forceSnapshot (membership changes, anti-entropy
// introductions) and every snapshotEvery deltas.
//
// Taking the ad's sequence, applying it here, encoding it and stamping
// it on the control link are one critical section under adMu, so the
// ads leave in sequence order and the link, which orders one sender's
// frames, delivers them so: a peer applies every delta on its base, and
// drops one only when the chain broke (see routing.Table.ApplyDelta).
// Only the sequence bump and the bookkeeping of the change run under
// n.mu.
func (n *Node) advertise(active []core.SubscriptionInfo, removed []string, forceSnapshot bool) {
	n.adMu.Lock()
	n.mu.Lock()
	n.adSeq++
	ad := subscriptionAd{Node: n.self, Seq: n.adSeq, Epoch: n.epoch}
	for _, id := range removed {
		if _, ok := n.lastAdv[id]; ok {
			delete(n.lastAdv, id)
			ad.Removed = append(ad.Removed, id)
		}
	}
	for _, info := range active {
		if prev, ok := n.lastAdv[info.ID]; !ok || !prev.Equal(info) {
			n.lastAdv[info.ID] = info
			ad.Subs = append(ad.Subs, info)
		}
	}
	if !forceSnapshot && n.adSeq > 1 && n.adsSinceSnap < snapshotEvery &&
		len(ad.Subs)+len(ad.Removed) < len(n.lastAdv) {
		n.adsSinceSnap++
		ad.Delta = true
		ad.BaseSeq = n.adSeq - 1
	} else {
		n.adsSinceSnap = 0
		ad.Removed = nil
		ad.Subs = make([]core.SubscriptionInfo, 0, len(n.lastAdv))
		for _, info := range n.lastAdv {
			ad.Subs = append(ad.Subs, info)
		}
	}
	closed := n.closed
	peers := slices.DeleteFunc(slices.Clone(n.peers), func(p string) bool { return p == n.self })
	n.mu.Unlock()

	// Our own state enters the routing table directly, and the certified
	// groups take its view before the ad leaves, so that this node
	// acknowledges under every identity it advertises. The ad goes to the
	// others only: delivering it here would run the control link's upcall
	// list, whose peer ads may call advertise, under our adMu.
	if n.applyAd(&ad).Applied && !closed {
		n.refreshCertSubscribers()
	}
	if !closed {
		payload, err := encodeAd(&ad)
		if err == nil {
			err = n.control.BroadcastTo(peers, payload)
		}
		if err != nil {
			// Peers keep routing on our previous advertisement until the
			// next snapshot gets through.
			n.log.Warn("dace: advertisement not sent",
				"node", n.self, "seq", ad.Seq, "delta", ad.Delta, "err", err)
		}
	}
	n.adMu.Unlock()
}

// applyAd ingests an advertisement, a peer's or our own, into the
// routing table.
func (n *Node) applyAd(ad *subscriptionAd) routing.ApplyResult {
	if ad.Delta {
		return n.routes.ApplyDelta(ad.Node, ad.Seq, ad.BaseSeq, ad.Subs, ad.Removed)
	}
	return n.routes.ApplySnapshot(ad.Node, ad.Seq, ad.Subs)
}

// onControl processes a subscription advertisement sent by from. The
// decode, filter parsing and plan bookkeeping all happen outside n.mu —
// a slow, huge or corrupt advertisement must never stall the publish
// path (PublishEnvelope briefly takes n.mu); the routing table has its
// own short-held lock. An ad speaks only for its sender: one naming
// another node is refused, since taken for that node's it could end the
// node's incarnation (NoteEpoch) or break the order of its ads, which
// the link keeps per sender.
func (n *Node) onControl(from string, payload []byte) {
	if len(payload) > maxAdBytes {
		n.routes.NoteAdRejected()
		n.log.Warn("dace: rejecting oversized advertisement", "bytes", len(payload))
		return // oversized advertisement: refuse before decoding
	}
	ad, err := decodeAd(payload)
	if err != nil {
		n.routes.NoteAdRejected()
		n.log.Warn("dace: rejecting undecodable advertisement",
			"bytes", len(payload), "err", err)
		return // corrupt advertisement: ignore
	}
	if ad.Node != from {
		n.routes.NoteAdRejected()
		n.log.Warn("dace: rejecting advertisement for another node",
			"from", from, "node", ad.Node)
		return
	}
	if ad.Node == n.self {
		return // ours: advertise applied it, and sends it to no one here
	}
	if !n.routes.NoteEpoch(ad.Node, ad.Epoch) {
		n.log.Debug("dace: dropping advertisement from dead incarnation",
			"node", ad.Node, "epoch", ad.Epoch)
		return
	}
	res := n.applyAd(ad)
	if res.NewNode {
		// Anti-entropy: introduce ourselves to newly seen nodes so a
		// late joiner learns the existing subscription tables. Full
		// snapshot — the joiner has no delta base of ours.
		n.advertise(nil, nil, true)
	}
	if res.Applied {
		// Certified redelivery targets the routing plane's current
		// durable-subscriber view; refresh it here so a subscriber that
		// moved or resubscribed starts receiving its backlog without
		// waiting for the next local publish.
		n.refreshCertSubscribers()
	}
}

// RemoteSubscriptionCount reports how many remote subscriptions this
// node currently knows (test and monitoring aid).
func (n *Node) RemoteSubscriptionCount() int {
	return n.routes.SubscriptionCount(n.self)
}
