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
// recorded and deduplicated by its identity (codec.IdentOf the ID its
// envelope's stored record spells, or the one its frame carries), test
// and add in one step — before the link takes it, and so before it is
// acknowledged or delivered. fresh reports whether the event was new; a
// false return means it is recorded here already (a redelivery) and must
// be acknowledged again but not delivered again. durable.Inbox is the
// one a node uses: on disk it stages the whole event, so a restarted
// subscriber can replay it; in memory (durable.NewMemInbox) it keeps the
// identity. StageIdent runs without the group's lock, on one copy of a
// frame at a time.
type Stager interface {
	StageIdent(id codec.Ident, origin string, payload []byte) (fresh bool, err error)
}

// Certified implements the paper's Certified delivery semantics
// (§3.1.2): "even if a notifiable temporarily disconnects or fails, it
// will eventually deliver the obvent". It is the reliable link over
// stable storage: its log is the durable.Outbox, which takes every
// broadcast before a frame leaves, each link entry naming the outbox
// offset it carries; a subscriber stages every event in a Stager before
// its link takes it. Its members are the addresses of the durable
// identities, and what an identity that left is owed stays in the outbox
// (SetSubscribers); a node sent one frame per event acknowledges under
// each identity the view lists at its own address, or under its address
// when the view lists none (SetView). How much of this survives a crash
// is the two stores' business, not the protocol's ("Durability" in the
// govents package documentation).
type Certified struct {
	*link
	log    *durable.Outbox // publisher side: the outbox
	stager Stager          // subscriber side: what has been received

	// order is held, before mu, from reading the outbox to queueing what
	// was read on the links: by a broadcast from reading its ID to its
	// append, and by SetView. The disk write holds no lock the receive
	// path or the timer takes.
	order sync.Mutex
	// inc is the group's incarnation as its names carry it
	// (certIncarnation).
	inc uint64
	// at maps each address to the durable IDs there, sorted, and cums to
	// the cumulative acknowledgement heard from each of them, in that
	// order. Both are guarded by mu.
	at   map[string][]string
	cums map[string][]uint64
}

var _ Group = (*Certified)(nil)

// NewCertified creates a certified group over the two stores of its
// class: log is the outbox it publishes from, in records what it
// receives. A node uses the one its role calls for and leaves the other
// empty.
func NewCertified[U Upcall](mux *Mux, stream string, log *durable.Outbox, in Stager, deliver U, opts Options) *Certified {
	g := &Certified{log: log, stager: in, at: make(map[string][]string), cums: make(map[string][]uint64)}
	g.link = newLink(mux, stream, upcallOf(deliver), opts, g)
	g.inc = certIncarnation(g.self, g.stream.epoch)
	return g
}

// certIncarnation is the incarnation a certified group's names carry:
// its epoch mixed with its address (64-bit FNV-1a over both). A
// subscriber's inbox keys an event by its name alone, and two publishers'
// epochs may agree (they are clock readings); their names then differ,
// but for a collision of the 64-bit mixes.
func certIncarnation(self string, epoch uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(self); i++ {
		h = (h ^ uint64(self[i])) * prime
	}
	for i := 0; i < 64; i += 8 {
		h = (h ^ epoch>>i&0xFF) * prime
	}
	return h
}

// NextName implements Group: the count is the link's, the incarnation
// certIncarnation's.
func (g *Certified) NextName() (inc, n uint64) {
	_, n = g.link.NextName()
	return g.inc, n
}

// SetSubscribers is SetView with every member heard from.
func (g *Certified) SetSubscribers(subs []CertSubscriber) error { return g.SetView(subs, nil) }

// SetView replaces the set of durable subscribers, and the members of
// the view not heard from yet (unheard), which may host subscribers
// nobody knows of: an entry broadcast while one is unheard stays in the
// outbox until it is heard from or no longer named unheard
// (durable.Outbox.Await), for the identities it then turns out to host. New durable IDs are
// registered as consumers of the outbox, before any member lets go of
// what it held back, and are owed every entry it holds; an address
// whose identities changed has queued on its link what they are owed and
// it does not hold, sent a RetransmitInterval later. The identities at
// this node's own address are the ones it acknowledges under, its
// address when there are none. Only with a subscriber at its own address
// does a broadcast take the local leg (record, self-acknowledge,
// deliver), and never over the transport: the link to this node carries
// only what an identity here was owed before it was.
func (g *Certified) SetView(subs []CertSubscriber, unheard []string) error {
	g.order.Lock()
	defer g.order.Unlock()
	at := make(map[string][]string)
	for _, s := range subs {
		// Registering a known identity costs nothing.
		if err := g.log.RegisterConsumer(s.DurableID); err != nil {
			return fmt.Errorf("multicast: certified %s: register %s: %w", g.stream, s.DurableID, err)
		}
		at[s.Addr] = append(at[s.Addr], s.DurableID)
	}
	g.log.Await(unheard)
	// Note: durable IDs that disappear are intentionally NOT
	// unregistered from the log — a disconnected subscriber is exactly
	// the case certified delivery exists for. Nothing says a permanent
	// goodbye yet: what a departed identity is owed stays in the outbox,
	// and the link of an address left with none is dropped, as a
	// reliable link's is, without touching it.
	g.mu.Lock()
	defer g.mu.Unlock()
	var addrs []string
	cums := make(map[string][]uint64, len(at))
	for addr, ids := range at {
		slices.Sort(ids)
		at[addr] = slices.Compact(ids)
		addrs = append(addrs, addr)
		cums[addr] = g.cums[addr]
		if !slices.Equal(at[addr], g.at[addr]) {
			cums[addr] = g.relinkLocked(addr, at[addr])
		}
	}
	g.at, g.cums = at, cums
	g.ids = at[g.self]
	if len(g.ids) == 0 {
		g.ids = []string{g.self}
	}
	g.members.set(addrs)
	return nil
}

// relinkLocked queues on addr's link, due a RetransmitInterval from now,
// what the outbox owes the identities now there (ids) and the link does
// not hold, and returns their cumulative acknowledgements, those of the
// ones that were there kept. The link numbers on from where it was: a
// receiver's sequence never goes back, and an offset it passed for one
// identity is new to it for another. Caller holds mu.
func (g *Certified) relinkLocked(addr string, ids []string) []uint64 {
	l := g.out[addr]
	if l == nil {
		l = &outLink{store: &g.chunks}
		g.out[addr] = l
	}
	held := make(map[uint64]bool)
	for i := l.head; i < len(l.entries); i++ {
		if !l.settled.Has(l.seqAt(i)) {
			held[l.entries[i].bcast] = true
		}
	}
	var owed []durable.Entry
	cums := make([]uint64, len(ids))
	for i, id := range ids {
		if k := slices.Index(g.at[addr], id); k >= 0 {
			cums[i] = g.cums[addr][k]
		}
		pending, _ := g.log.Pending(id) // SetSubscribers registered id
		for _, e := range pending {
			if !held[e.Offset] { // a second identity's too: once
				held[e.Offset] = true
				owed = append(owed, e)
			}
		}
	}
	slices.SortFunc(owed, func(a, b durable.Entry) int { return cmp.Compare(a.Offset, b.Offset) })
	for _, e := range owed {
		g.queueLocked(addr, l, outEntry{payload: e.Payload, id: linkID(e.ID, e.Payload), bcast: e.Offset})
	}
	return cums
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

// Broadcast implements Group. An envelope's stored record is the event
// under the name it spells, which dace gives it (NextName); any other
// payload is given one here.
func (g *Certified) Broadcast(payload []byte) error { return g.broadcast("", payload) }

// BroadcastWithID is Broadcast under a caller-chosen event identity,
// which the outbox keys the event by, and which a subscriber stages it by
// unless the payload is a stored record that spells another.
func (g *Certified) BroadcastWithID(text string, payload []byte) error {
	return g.broadcast(text, payload)
}

// broadcast persists the event under the identity eventID gives it
// before any transmission (write-ahead), and queues it on the link of
// every subscribed address; the outbox and the links copy what they
// keep, so the caller may reuse payload once the call returns.
func (g *Certified) broadcast(text string, payload []byte) error {
	if g.timer.Stopped() {
		return fmt.Errorf("multicast: certified %s: closed", g.stream)
	}
	var few [4]linkFrame
	frames := few[:0]
	g.order.Lock()
	id, sent := g.eventID(text, payload)
	// No Origin on the frame: there is no relay. The frame is checked at
	// its widest before the outbox takes the event, which it would owe
	// for ever, even with no remote subscriber now: the outbox owes an
	// entry to every durable identity it knows, departed ones included,
	// and redelivers it to wherever one reappears.
	err := fits(g.stream, &message{Kind: kindData, Seq: math.MaxUint64, Base: 1, ID: sent, Payload: payload})
	if err != nil {
		g.order.Unlock()
		return fmt.Errorf("multicast: certified %s: %w", g.stream, err)
	}
	off, err := g.log.AddIdent(id, payload)
	if err != nil {
		g.order.Unlock()
		return fmt.Errorf("multicast: certified %s: persist: %w", g.stream, err)
	}
	g.mu.Lock()
	for _, addr := range g.members.snapshot() {
		if addr != g.self { // every member's link was made by SetSubscribers
			frames = append(frames, g.queueLocked(addr, g.out[addr], outEntry{payload: payload, id: sent, bcast: off}))
		}
	}
	local := g.at[g.self]
	g.mu.Unlock()
	g.order.Unlock()
	g.transmit(frames)
	if len(local) == 0 {
		return nil
	}
	// The local leg of a node subscribed to its own class: record as a
	// received event is, acknowledge to ourselves, deliver in-process.
	fresh, err := g.stager.StageIdent(id, g.self, payload)
	if err != nil {
		return fmt.Errorf("multicast: certified %s: stage local: %w", g.stream, err)
	}
	run := [1]durable.Run{{Lo: off, Hi: off}}
	for _, durableID := range local {
		if err := g.log.AckRuns(durableID, run[:]); err != nil { // still owed
			g.opts.Logger.Warn("multicast: certified self-acknowledgement failed",
				"stream", g.stream.name, "subscriber", durableID, "id", id.Text(), "err", err)
		}
	}
	if fresh && g.upcall.post(queuedMsg{origin: g.self, epoch: g.stream.epoch, payload: payload}) {
		g.upcall.run()
	}
	return nil
}

// eventID returns the identity the outbox keys payload by, and the ID
// its data frames carry (linkID): text's, if the caller chose one; else
// the one its stored record spells, which the frames leave to the
// record; else a name the group gives it, which they carry. Caller holds
// order.
func (g *Certified) eventID(text string, payload []byte) (codec.Ident, string) {
	if text != "" {
		return codec.IdentOf(text), linkID(text, payload)
	}
	if b, ok := codec.StoredID(payload); ok && len(b) > 0 {
		return codec.IdentOf(b), ""
	}
	inc, n := g.NextName()
	name := codec.Name{Inc: inc, N: n}
	return codec.Ident{Name: name}, name.String()
}

// linkID is the ID a data frame carries for the event id: none when its
// payload is a stored record that spells id, as an envelope's is (the
// subscriber reads it there), and id otherwise.
func linkID(id string, payload []byte) string {
	if b, ok := codec.StoredID(payload); ok && string(b) == id {
		return ""
	}
	return id
}

// OutboxLen returns how many entries the outbox holds.
func (g *Certified) OutboxLen() int { return g.log.Len() }

// Pause holds every delivery after the one in progress; incoming events
// continue to be staged and acknowledged, and are listed until Resume.
// Used to make the replay→live handoff of a durable subscription
// seamless: nothing is delivered live while the backlog replays.
func (g *Certified) Pause() { g.upcall.pause() }

// Resume releases a Pause and delivers the held events, in order, on
// the caller.
func (g *Certified) Resume() { g.upcall.resume() }

// stage is a certified link's receive hook, run with mu held, which it
// lets go for the Stager, before note takes a frame the link does not
// hold. A frame note would refuse must not be staged (its resend would
// read as staged, and go undelivered): it is refused here, as is a copy
// of a frame being staged, and so is a frame the Stager fails. An event
// staged already is delivered by nobody (a zero queuedMsg).
func (g *link) stage(l *inLink, m *message, msg queuedMsg) (queuedMsg, bool) {
	// Every frame being staged may open a run.
	if l.staging[m.Seq] || m.Seq != l.got.Floor()+1 && len(l.got.Runs())+len(l.staging) >= maxAhead {
		return msg, false
	}
	id := codec.IdentOf(m.ID)
	if m.ID == "" { // the payload's stored record spells it (linkID)
		b, ok := codec.StoredID(m.Payload)
		if !ok || len(b) == 0 {
			g.opts.Logger.Warn("multicast: certified frame names no event; dropped",
				"stream", g.stream.name, "origin", msg.origin)
			return msg, false
		}
		id = codec.IdentOf(b)
	}
	if l.staging == nil {
		l.staging = make(map[uint64]bool)
	}
	l.staging[m.Seq] = true
	g.mu.Unlock()
	fresh, err := g.cert.stager.StageIdent(id, msg.origin, m.Payload)
	g.mu.Lock()
	delete(l.staging, m.Seq)
	switch {
	case err != nil:
		g.opts.Logger.Warn("multicast: certified cannot record delivery; withholding ack",
			"stream", g.stream.name, "id", id.Text(), "err", err)
		return msg, false
	case !fresh:
		return queuedMsg{}, true
	case l.got.Has(m.Seq): // a base passed it meanwhile
		l.ready = append(l.ready, msg)
	}
	return msg, true
}

// book takes a certified acknowledgement from the identity it names,
// if that identity is at from: the outbox books, as one record, the
// offsets of the entries it names that from's link carried and has not
// settled, and the link then settles what each identity there has
// acknowledged. One the outbox does not book settles nothing, and the
// link resends what it names.
func (g *Certified) book(from string, m *message) {
	var few [4]durable.Run
	g.mu.Lock()
	l := g.out[from]
	if l == nil || !slices.Contains(g.at[from], m.Origin) {
		g.mu.Unlock()
		return // an identity not, or no longer, at from
	}
	runs := l.offsets(m.Seq, m.Payload, few[:0])
	g.mu.Unlock()
	if len(runs) > 0 {
		if err := g.log.AckRuns(m.Origin, runs); err != nil {
			level := slog.LevelWarn
			if errors.Is(err, durable.ErrUnknownConsumer) {
				level = slog.LevelDebug // an identity that subscribed and left
			}
			g.opts.Logger.Log(context.Background(), level, "multicast: certified acknowledgement not booked",
				"stream", g.stream.name, "subscriber", m.Origin, "lo", runs[0].Lo, "hi", runs[0].Hi, "err", err)
			return
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	i := slices.Index(g.at[from], m.Origin)
	if i < 0 {
		return // moved on meanwhile
	}
	cums := g.cums[from]
	cums[i] = max(cums[i], m.Seq)
	if len(cums) > 1 { // several identities here: an entry stays until each passed it
		l.settle(1, slices.Min(cums))
		return
	}
	l.settle(1, m.Seq)
	seqset.EachRun(m.Payload, m.Seq, l.settle)
}

// offsets appends to runs the outbox offsets of the entries that an
// acknowledgement of cum and of the runs in list names and l has not
// settled: what the link carried, and nothing it passed over.
func (l *outLink) offsets(cum uint64, list []byte, runs []durable.Run) []durable.Run {
	name := func(lo, hi uint64) {
		for seq := max(lo, l.base()); seq <= min(hi, l.next); seq++ {
			if l.settled.Has(seq) {
				continue
			}
			off := l.entries[len(l.entries)-1-int(l.next-seq)].bcast
			if n := len(runs); n > 0 && runs[n-1].Hi+1 == off {
				runs[n-1].Hi = off
			} else {
				runs = append(runs, durable.Run{Lo: off, Hi: off})
			}
		}
	}
	name(1, cum)
	seqset.EachRun(list, cum, name)
	return runs
}
