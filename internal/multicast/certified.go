package multicast

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"govents/internal/codec"
	"govents/internal/durable"
	"govents/internal/seqset"
)

// CertSubscriber identifies a durable subscriber of a certified group:
// its stable durable ID (the paper's activate(long id), §3.4.1, which
// lets a subscription outlive its hosting process) and its current
// transport address, which may change across restarts.
type CertSubscriber struct {
	DurableID string
	Addr      string
}

// Stager is the subscriber-side store of a certified group, the
// counterpart of the publisher's outbox: an incoming event is staged —
// recorded and deduplicated by event ID, test and add in one step —
// before its offset joins those the next acknowledgement names and
// before it is delivered. fresh reports whether the event was new; a
// false return means it is recorded here already (a redelivery) and
// must be acknowledged again but not delivered again. durable.Inbox is
// the one a node uses: on disk it stages the whole event, so a
// restarted subscriber can replay it; in memory (durable.NewMemInbox)
// it keeps the ID.
type Stager interface {
	Stage(id, origin string, payload []byte) (fresh bool, err error)
}

// Certified implements the paper's Certified delivery semantics
// (§3.1.2): "even if a notifiable temporarily disconnects or fails, it
// will eventually deliver the obvent". The publisher persists every
// broadcast in a durable.Outbox and retransmits to each registered durable
// subscriber until that subscriber acknowledges (what has gone a full
// RetransmitInterval without acknowledgement, not what has just left);
// subscribers record every event in a Stager before acknowledging it,
// so a redelivery is delivered exactly once. How much of that survives
// a crash is the two stores' business, not the protocol's. The
// publisher is a subscriber only if SetSubscribers names its own
// address.
//
// A data frame names its entry's outbox offset (Seq), and the stream's
// handshake (Mux) hands the subscriber the group's incarnation; a
// subscriber acknowledges runs of offsets, when Reliable would
// (ackEvery, ticksPerInterval), under each identity it holds, naming the
// incarnation by the number it gave it, and the publisher books each
// acknowledgement of its own incarnation as one outbox record
// ("Durability" in the govents package documentation).
type Certified struct {
	mux    *Mux
	stream *stream // its epoch is the group's incarnation
	self   string
	opts   Options

	upcall *releaseList
	lc     *lifecycle

	log *durable.Outbox // publisher side: the outbox
	in  Stager          // subscriber side: what has been received

	mu     sync.Mutex
	subs   map[string]string    // durable ID -> current address
	remote []string             // the addresses of the durable IDs subscribed elsewhere
	local  []string             // durable IDs subscribed at this node
	ids    []string             // our identities when acknowledging
	gen    uint64               // acknowledgement-timer periods elapsed
	links  map[string]*certLink // publisher -> what to acknowledge to it

	// young is the lowest offset first sent since the last redelivery
	// tick, which a tick leaves alone with all above it: they have not
	// been out for a RetransmitInterval. A broadcast holds
	// sending shared from its outbox append to its last send and the
	// tick takes the watermark holding it exclusively, so no broadcast
	// straddles a tick.
	sending sync.RWMutex
	young   uint64
}

// certLink is the subscriber's end of one publisher's stream: the
// offsets of the frames received since the last acknowledgement, a
// duplicate's too, and when that was.
type certLink struct {
	in     incarnation // the publisher's incarnation the offsets are of
	staged seqset.Set  // offsets start at 1: the floor is a run from 1
	acker
}

// ack builds the link's acknowledgement, identity apart, books it as
// sent in timer period gen and empties the set.
func (l *certLink) ack(gen uint64) message {
	var few [ackEvery]seqset.Run
	runs := few[:0]
	if floor := l.staged.Floor(); floor > 0 {
		runs = append(runs, seqset.Run{Lo: 1, Hi: floor})
	}
	runs = append(runs, l.staged.Runs()...)
	l.staged.Clip(0)
	l.sent(gen)
	return message{Kind: kindCertAck, Inc: l.in.num, Payload: seqset.AppendRuns(nil, 0, runs)}
}

var _ Group = (*Certified)(nil)

// NewCertified creates a certified group over the two stores of its
// class: log is the outbox it publishes from, in records what it
// receives. A node uses the one its role calls for and leaves the other
// empty.
func NewCertified(mux *Mux, stream string, log *durable.Outbox, in Stager, deliver Deliver, opts Options) *Certified {
	opts = opts.withDefaults()
	g := &Certified{
		mux:    mux,
		stream: newStream(stream, newEpoch()),
		self:   mux.Addr(),
		opts:   opts,
		lc:     newLifecycle(),
		log:    log,
		in:     in,
		subs:   make(map[string]string),
		ids:    []string{mux.Addr()},
		gen:    1, // 0 is certLink.ackGen's "never acknowledged"
		young:  math.MaxUint64,
		links:  make(map[string]*certLink),
		upcall: newReleaseList(deliver),
	}
	mux.open(g.stream, g.onMessage)
	g.lc.goTick(max(opts.RetransmitInterval/ticksPerInterval, time.Nanosecond), g.tick)
	return g
}

// SetSubscribers replaces the set of durable subscribers. New durable
// IDs are registered as consumers of the outbox log and are owed every
// entry not yet garbage-collected; a subscriber reconnecting under a new
// address receives its pending backlog there. Only with a subscriber at
// this node's own address does a broadcast take the local leg (record,
// self-acknowledge, deliver), and never over the transport.
func (g *Certified) SetSubscribers(subs []CertSubscriber) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := make(map[string]string, len(subs))
	for _, s := range subs {
		next[s.DurableID] = s.Addr
		if _, known := g.subs[s.DurableID]; !known {
			if err := g.log.RegisterConsumer(s.DurableID); err != nil {
				return fmt.Errorf("multicast: certified %s: register %s: %w", g.stream, s.DurableID, err)
			}
		}
	}
	// Note: durable IDs that disappear are intentionally NOT
	// unregistered from the log — a disconnected subscriber is exactly
	// the case certified delivery exists for. Nothing says a permanent
	// goodbye yet: what a departed identity is owed stays in the outbox.
	g.subs = next
	g.splitLocked()
	return nil
}

// splitLocked derives remote and local from subs: a node holding
// several identities is one address, sent one frame. The slices are
// replaced, never written to: a broadcast reads them outside the lock.
func (g *Certified) splitLocked() {
	g.remote, g.local = nil, nil
	for id, addr := range g.subs {
		switch {
		case addr == g.self:
			g.local = append(g.local, id)
		case !slices.Contains(g.remote, addr):
			g.remote = append(g.remote, addr)
		}
	}
}

// SetMembers implements Group by treating each address, this node's
// included, as a durable subscriber whose ID is the address itself.
// Groups needing durable IDs distinct from addresses use SetSubscribers.
func (g *Certified) SetMembers(members []string) {
	subs := make([]CertSubscriber, 0, len(members))
	for _, addr := range members {
		subs = append(subs, CertSubscriber{DurableID: addr, Addr: addr})
	}
	if err := g.SetSubscribers(subs); err != nil {
		g.opts.Logger.Warn("multicast: certified membership update failed",
			"stream", g.stream.name, "err", err)
	}
}

// Broadcast implements Group: the payload is persisted before any
// transmission (write-ahead), then pushed to all currently connected
// subscribers. Retransmission to absent or unacknowledged subscribers is
// driven by the redelivery tick.
func (g *Certified) Broadcast(payload []byte) error {
	return g.BroadcastWithID(codec.NewID(), payload)
}

// BroadcastWithID is Broadcast under a caller-chosen event identity.
// Callers whose payload already carries an ID (envelopes) pass it here,
// so the durable staging inbox and the application-level delivery
// acknowledgements key the same event by the same string. The outbox
// keeps payload (durable.Outbox): the caller does not write to it again.
func (g *Certified) BroadcastWithID(id string, payload []byte) error {
	if g.lc.closed() {
		return fmt.Errorf("multicast: certified %s: closed", g.stream)
	}
	// No Origin on the record: there is no relay, so the publisher is
	// the transport's sender. The frame is checked at its widest offset
	// before the outbox takes the event, which it would owe for ever,
	// even with no remote subscriber now: the outbox owes an entry to
	// every durable identity it knows, departed ones included, and
	// redelivers it to wherever one reappears.
	data := message{Kind: kindCertData, ID: id, Seq: math.MaxUint64, Payload: payload}
	if err := fits(g.stream, &data); err != nil {
		return fmt.Errorf("multicast: certified %s: %w", g.stream, err)
	}
	// The local delivery runs after the barrier: a Block lane may hold
	// it up, and a redelivery tick must not wait on that.
	g.sending.RLock()
	off, err := g.log.Add(durable.Entry{ID: id, Payload: payload})
	if err != nil {
		g.sending.RUnlock()
		return fmt.Errorf("multicast: certified %s: persist: %w", g.stream, err)
	}
	data.Seq = off
	g.mu.Lock()
	remote, local := g.remote, g.local
	g.young = min(g.young, off)
	g.mu.Unlock()
	// The local leg of a node subscribed to its own class: record as a
	// received event is, acknowledge to ourselves, deliver in-process.
	fresh := false
	if len(local) > 0 {
		if fresh, err = g.in.Stage(id, g.self, payload); err != nil {
			g.sending.RUnlock()
			return fmt.Errorf("multicast: certified %s: stage local: %w", g.stream, err)
		}
		run := [1]durable.Run{{Lo: off, Hi: off}}
		for _, durableID := range local {
			if err := g.log.AckRuns(durableID, run[:]); err != nil {
				// Still pending for us: redelivery acknowledges it.
				g.opts.Logger.Warn("multicast: certified self-acknowledgement failed",
					"stream", g.stream.name, "subscriber", durableID, "id", id, "err", err)
			}
		}
	}
	_ = g.mux.fanOut(remote, g.self, g.stream, &data) // unacknowledged: redelivery sends it again
	g.sending.RUnlock()
	if fresh {
		g.upcall.add(g.self, payload)
		g.upcall.run()
	}
	return nil
}

// Close implements Group.
func (g *Certified) Close() error {
	g.mux.close(g.stream)
	g.lc.close()
	g.upcall.close()
	return nil
}

// OutboxLen returns how many entries the outbox holds.
func (g *Certified) OutboxLen() int { return g.log.Len() }

// tick is one acknowledgement-timer period: it acknowledges what was
// staged and not yet acknowledged, and every ticksPerInterval-th period
// is a redelivery tick.
func (g *Certified) tick() {
	var acks []linkFrame
	g.mu.Lock()
	g.gen++
	gen, ids := g.gen, g.ids
	for from, l := range g.links {
		if l.unacked > 0 {
			acks = append(acks, linkFrame{from, l.ack(gen)})
		}
	}
	g.mu.Unlock()
	for i := range acks {
		g.sendAck(acks[i].addr, &acks[i].msg, ids)
	}
	if gen%ticksPerInterval == 0 {
		g.redeliver()
	}
}

// redeliver is one redelivery tick: it sends each subscribed address
// what an identity there has not acknowledged, bar the entries first
// sent since the previous tick. What is owed is read inside the barrier
// that takes the watermark: read after it, an entry appended since would
// be on neither side of it and be sent again at once — to this very
// node, if it subscribes here and had not yet acknowledged to itself.
func (g *Certified) redeliver() {
	due := make(map[string][]durable.Entry) // address -> owed there, by offset
	g.sending.Lock()
	g.mu.Lock()
	young := g.young
	g.young = math.MaxUint64
	for durableID, addr := range g.subs {
		pending, err := g.log.Pending(durableID)
		if err != nil {
			g.opts.Logger.Warn("multicast: certified redelivery cannot read outbox",
				"stream", g.stream.name, "subscriber", durableID, "err", err)
			continue
		}
		if owed, shared := due[addr]; shared {
			// A second identity at the address: what either is owed, once.
			owed = append(owed, pending...)
			slices.SortFunc(owed, func(a, b durable.Entry) int { return cmp.Compare(a.Offset, b.Offset) })
			pending = slices.CompactFunc(owed, func(a, b durable.Entry) bool { return a.Offset == b.Offset })
		}
		due[addr] = pending
	}
	g.mu.Unlock()
	g.sending.Unlock()

	for addr, owed := range due {
		for _, e := range owed {
			if e.Offset >= young {
				break // the rest left since the previous tick
			}
			err := g.mux.sendMessage(addr, g.stream, &message{Kind: kindCertData, ID: e.ID, Seq: e.Offset, Payload: e.Payload})
			if err != nil {
				g.opts.Logger.Debug("multicast: certified redelivery send failed",
					"stream", g.stream.name, "addr", addr, "id", e.ID, "err", err)
			}
		}
	}
}

// SetDurableIDs sets the durable identities this node acknowledges
// under: those of its subscriptions to the class. With none it
// acknowledges under its address.
func (g *Certified) SetDurableIDs(ids []string) {
	if len(ids) == 0 {
		ids = []string{g.self}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ids = ids
}

// Pause holds every delivery after the one in progress; incoming events
// continue to be staged and acknowledged, and are listed until Resume.
// Used to make the replay→live handoff of a durable subscription
// seamless: nothing is delivered live while the backlog replays.
func (g *Certified) Pause() { g.upcall.pause() }

// Resume releases a Pause and delivers the held events, in order, on
// the caller.
func (g *Certified) Resume() { g.upcall.resume() }

// sendAck sends one acknowledgement under each of ids. A lost one is
// made good by the redelivery it fails to prevent.
func (g *Certified) sendAck(to string, ack *message, ids []string) {
	for _, id := range ids {
		ack.Origin = id
		_ = g.mux.sendMessage(to, g.stream, ack)
	}
}

func (g *Certified) onMessage(from string, in incarnation, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil {
		g.opts.Logger.Warn("multicast: certified dropping undecodable frame",
			"stream", g.stream.name, "from", from, "bytes", len(data), "err", err)
		return
	}
	switch m.Kind {
	case kindCertData:
		if m.Seq == 0 || in.epoch == 0 {
			return // names no offset or no incarnation: nothing here could acknowledge it
		}
		// The offset is acknowledged after the event is recorded, so a
		// crash between the two causes a redelivery that the record
		// suppresses.
		fresh, err := g.in.Stage(m.ID, from, m.Payload)
		if err != nil {
			g.opts.Logger.Warn("multicast: certified cannot record delivery; withholding ack",
				"stream", g.stream.name, "id", m.ID, "err", err)
			return // no ack: the publisher keeps redelivering
		}
		g.mu.Lock()
		l := g.links[from]
		if l == nil || in.epoch > l.in.epoch {
			// A publisher never heard from, or its next incarnation, which
			// would drop an acknowledgement of the last one's offsets.
			l = &certLink{in: in}
			g.links[from] = l
		}
		var ack message             // of no kind until it is due
		if in.epoch == l.in.epoch { // else a straggler of a dead incarnation
			// A duplicate is owed an acknowledgement like a first arrival.
			l.staged.Add(m.Seq, m.Seq, 0)
			if l.arrived(g.gen) {
				ack = l.ack(g.gen)
			}
		}
		ids := g.ids
		g.mu.Unlock()
		if ack.Kind != 0 {
			g.sendAck(from, &ack, ids)
		}
		if fresh { // delivered once its acknowledgement is booked
			g.upcall.add(from, m.Payload)
			g.upcall.run()
		}
	case kindCertAck:
		if m.Inc == 0 || m.Inc != g.mux.number(g.stream, from) {
			return // addressed to an earlier incarnation of this group
		}
		var few [4]durable.Run
		runs := few[:0]
		seqset.EachRun(m.Payload, 0, func(lo, hi uint64) { runs = append(runs, durable.Run{Lo: lo, Hi: hi}) })
		if len(runs) == 0 {
			return
		}
		if err := g.log.AckRuns(m.Origin, runs); err != nil {
			level := slog.LevelWarn
			if errors.Is(err, durable.ErrUnknownConsumer) {
				level = slog.LevelDebug // an identity that subscribed and left
			}
			g.opts.Logger.Log(context.Background(), level, "multicast: certified acknowledgement not booked",
				"stream", g.stream.name, "subscriber", m.Origin, "lo", runs[0].Lo, "hi", runs[0].Hi, "err", err)
		}
	}
}
