package multicast

import (
	"fmt"
	"sync"

	"govents/internal/codec"
	"govents/internal/store"
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
// counterpart of the publisher's store.Log: an incoming event is staged
// — recorded and deduplicated by event ID, test and add in one step —
// BEFORE it is acknowledged to the publisher and delivered. fresh
// reports whether the event was new; a false return means it is
// recorded here already (a redelivery) and must be re-acked but not
// delivered again. durable.Inbox stages the whole event on disk, so a
// restarted subscriber can replay it; store.MemSet keeps the ID in
// memory.
type Stager interface {
	Stage(id, origin string, payload []byte) (fresh bool, err error)
}

// Certified implements the paper's Certified delivery semantics
// (§3.1.2): "even if a notifiable temporarily disconnects or fails, it
// will eventually deliver the obvent". The publisher persists every
// broadcast in a store.Log and retransmits to each registered durable
// subscriber until that subscriber acknowledges (what has gone a full
// RetransmitInterval without acknowledgement, not what has just left);
// subscribers record every event in a Stager before acknowledging it,
// so a redelivery is delivered exactly once. How much of that survives
// a crash is the two stores' business, not the protocol's. The
// publisher is a subscriber only if SetSubscribers names its own
// address.
type Certified struct {
	mux    *Mux
	stream string
	self   string
	opts   Options

	queue *deliveryQueue
	lc    *lifecycle

	log store.Log // publisher side: the outbox
	in  Stager    // subscriber side: what has been received

	mu        sync.Mutex
	subs      map[string]string // durable ID -> current address
	remote    []string          // one address per durable ID subscribed elsewhere
	local     []string          // durable IDs subscribed at this node
	durableID string            // our identity when acknowledging

	// young holds the IDs first sent since the last redelivery tick,
	// which a tick leaves alone: they have not been out for a
	// RetransmitInterval. A broadcast holds sending shared from its
	// outbox append to its last send and the tick takes the young set
	// holding it exclusively, so no broadcast straddles a tick.
	sending sync.RWMutex
	young   map[string]struct{}
}

var _ Group = (*Certified)(nil)

// NewCertified creates a certified group over the two stores of its
// class: log is the outbox it publishes from, in records what it
// receives. A node uses the one its role calls for and leaves the other
// empty.
func NewCertified(mux *Mux, stream string, log store.Log, in Stager, deliver Deliver, opts Options) *Certified {
	opts = opts.withDefaults()
	g := &Certified{
		mux:    mux,
		stream: stream,
		self:   mux.Addr(),
		opts:   opts,
		queue:  newDeliveryQueue(deliver),
		lc:     newLifecycle(),
		log:    log,
		in:     in,
		subs:   make(map[string]string),
		young:  make(map[string]struct{}),
	}
	mux.Handle(stream, g.onMessage)
	g.lc.goTick(opts.RetransmitInterval, g.redeliver)
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

// splitLocked derives remote and local from subs. The slices are
// replaced, never written to: a broadcast reads them outside the lock.
func (g *Certified) splitLocked() {
	g.remote, g.local = nil, nil
	for id, addr := range g.subs {
		if addr == g.self {
			g.local = append(g.local, id)
		} else {
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
			"stream", g.stream, "err", err)
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
// keeps payload (store.Log): the caller does not write to it again.
func (g *Certified) BroadcastWithID(id string, payload []byte) error {
	if g.lc.closed() {
		return fmt.Errorf("multicast: certified %s: closed", g.stream)
	}
	g.sending.RLock()
	defer g.sending.RUnlock()
	if err := g.log.Append(store.Entry{ID: id, Payload: payload}); err != nil {
		return fmt.Errorf("multicast: certified %s: persist: %w", g.stream, err)
	}
	// No Origin on the record: there is no relay, so the publisher is
	// the transport's sender.
	frame, err := frameMessage(g.stream, &message{Kind: kindCertData, ID: id, Payload: payload})
	if err != nil {
		return err
	}
	g.mu.Lock()
	remote, local := g.remote, g.local
	g.young[id] = struct{}{}
	g.mu.Unlock()
	// The local leg of a node subscribed to its own class: record as a
	// received event is, acknowledge to ourselves, deliver in-process.
	fresh := false
	if len(local) > 0 {
		if fresh, err = g.in.Stage(id, g.self, payload); err != nil {
			return fmt.Errorf("multicast: certified %s: stage local: %w", g.stream, err)
		}
		for _, durableID := range local {
			if err := g.log.Ack(durableID, id); err != nil {
				// Still pending for us: redelivery acknowledges it.
				g.opts.Logger.Warn("multicast: certified self-acknowledgement failed",
					"stream", g.stream, "subscriber", durableID, "id", id, "err", err)
			}
		}
	}
	for _, addr := range remote {
		_ = g.mux.sendFrame(addr, frame) // unacknowledged: redelivery sends it again
	}
	if fresh {
		g.queue.push(g.self, payload)
	}
	return nil
}

// Close implements Group.
func (g *Certified) Close() error {
	g.mux.Unhandle(g.stream)
	g.lc.close()
	g.queue.close()
	return nil
}

// GC drops fully acknowledged entries from the outbox.
func (g *Certified) GC() (int, error) { return g.log.GC() }

// OutboxLen returns how many entries the outbox holds.
func (g *Certified) OutboxLen() int { return g.log.Len() }

// redeliver is one tick: it sends each subscriber what it has not
// acknowledged, bar the entries first sent since the previous tick.
// What is owed is read inside the barrier that takes the young set: read
// after it, an entry appended since would be in neither and be sent
// again at once — to this very node, if it subscribes here and had not
// yet acknowledged to itself.
func (g *Certified) redeliver() {
	type owed struct {
		durableID, addr string
		entries         []store.Entry
	}
	var due []owed
	g.sending.Lock()
	g.mu.Lock()
	young := g.young
	g.young = make(map[string]struct{}, len(young))
	for durableID, addr := range g.subs {
		pending, err := g.log.Pending(durableID)
		if err != nil {
			g.opts.Logger.Warn("multicast: certified redelivery cannot read outbox",
				"stream", g.stream, "subscriber", durableID, "err", err)
			continue
		}
		due = append(due, owed{durableID, addr, pending})
	}
	g.mu.Unlock()
	g.sending.Unlock()

	for _, d := range due {
		for _, e := range d.entries {
			if _, ok := young[e.ID]; ok {
				continue
			}
			err := g.mux.sendMessage(d.addr, g.stream, &message{Kind: kindCertData, ID: e.ID, Payload: e.Payload})
			if err != nil {
				g.opts.Logger.Debug("multicast: certified redelivery send failed",
					"stream", g.stream, "subscriber", d.durableID, "addr", d.addr, "err", err)
			}
		}
	}
}

// DurableID returns the durable subscriber identity this node
// acknowledges under. It defaults to the node address; override with
// SetDurableID before subscribing durably.
func (g *Certified) DurableID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.durableID != "" {
		return g.durableID
	}
	return g.self
}

// SetDurableID sets the durable identity used in acknowledgements.
func (g *Certified) SetDurableID(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.durableID = id
}

// Pause parks the group's delivery goroutine; incoming events continue
// to be staged and acknowledged but are not delivered until Resume.
// Used to make the replay→live handoff of a durable subscription
// seamless: nothing is delivered live while the backlog replays.
func (g *Certified) Pause() { g.queue.pause() }

// Resume releases a Pause, draining accumulated deliveries in order.
func (g *Certified) Resume() { g.queue.resume() }

func (g *Certified) onMessage(from string, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil {
		g.opts.Logger.Warn("multicast: certified dropping undecodable frame",
			"stream", g.stream, "from", from, "bytes", len(data), "err", err)
		return
	}
	switch m.Kind {
	case kindCertData:
		// Acknowledge under our durable identity — after recording the
		// event, so a crash between deliver and ack causes a redelivery
		// that the record suppresses.
		fresh, err := g.in.Stage(m.ID, from, m.Payload)
		if err != nil {
			g.opts.Logger.Warn("multicast: certified cannot record delivery; withholding ack",
				"stream", g.stream, "id", m.ID, "err", err)
			return // no ack: the publisher keeps redelivering
		}
		if fresh {
			g.queue.push(from, m.Payload)
		}
		_ = g.mux.sendMessage(from, g.stream, &message{Kind: kindCertAck, Origin: g.DurableID(), ID: m.ID})
	case kindCertAck:
		_ = g.log.Ack(m.Origin, m.ID)
	}
}
