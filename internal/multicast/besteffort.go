package multicast

import (
	"fmt"
	"sync/atomic"
)

// BestEffort is the weakest dissemination protocol: a unicast fanout with
// no acknowledgements, retransmissions, or ordering. It models the
// network-level multicast primitives (IP multicast and derivatives) that
// the paper's DACE architecture uses for unreliable obvents (§4.2).
type BestEffort struct {
	mux    *Mux
	stream *stream
	self   string

	upcall  *releaseList
	members membership
	closed  atomic.Bool
}

var _ Group = (*BestEffort)(nil)

// NewBestEffort creates a best-effort group on the given stream.
func NewBestEffort(mux *Mux, stream string, deliver Deliver) *BestEffort {
	g := &BestEffort{
		mux:    mux,
		stream: newStream(stream, 0),
		self:   mux.Addr(),
		upcall: newReleaseList(deliver),
	}
	mux.open(g.stream, g.onMessage)
	return g
}

// SetMembers implements Group.
func (g *BestEffort) SetMembers(members []string) { g.members.set(members) }

// Broadcast implements Group. Errors reaching individual members are
// ignored — the protocol is best-effort by contract. The local node
// always receives its own broadcast, whether or not it appears in the
// membership.
func (g *BestEffort) Broadcast(payload []byte) error {
	return g.BroadcastTo(append(g.members.others(g.self), g.self), payload)
}

// BroadcastTo disseminates to an explicit destination set (which may
// include the local node). It supports publisher-side filtering, where
// the sender prunes destinations per message (paper §2.3.2).
func (g *BestEffort) BroadcastTo(dests []string, payload []byte) error {
	if g.closed.Load() {
		return fmt.Errorf("multicast: besteffort %s: closed", g.stream)
	}
	// The record carries nothing but the payload: there is no relay, so
	// the origin is the transport's sender, and nothing deduplicates.
	msg := message{Kind: kindData, Payload: payload}
	if err := g.mux.fanOut(dests, g.self, g.stream, &msg); err != nil {
		return fmt.Errorf("multicast: besteffort %s: %w", g.stream, err)
	}
	for _, addr := range dests {
		if addr == g.self { // the publishing node may itself subscribe
			if g.upcall.post(queuedMsg{origin: g.self, payload: payload}) {
				g.upcall.run()
			}
			break
		}
	}
	return nil
}

// Close implements Group.
func (g *BestEffort) Close() error {
	g.mux.close(g.stream)
	g.closed.Store(true)
	g.upcall.close()
	return nil
}

func (g *BestEffort) onMessage(from string, _ incarnation, data []byte) {
	var m message
	if err := decodeMessage(data, &m); err != nil || m.Kind != kindData {
		return
	}
	if g.upcall.post(queuedMsg{origin: from, payload: m.Payload}) {
		g.upcall.run()
	}
}
