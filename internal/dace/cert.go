package dace

import (
	"slices"
	"time"

	"govents/internal/core"
	"govents/internal/durable"
	"govents/internal/multicast"
)

// certStores is the one place a certified class's stores come from: the
// durability manager's outbox and inbox of the class, else a fresh pair
// in memory that the class's group owns (durable.NewMemOutbox,
// NewMemInbox). Either way no two classes share one, so no class is owed
// another's events. The manager opens both logs of a class or neither;
// failing that the class falls back to memory, loudly — delivery
// degrades to disconnect-only recovery, it does not disappear.
func (n *Node) certStores(class string) (*durable.Outbox, *durable.Inbox) {
	if n.cfg.Durable != nil {
		ob, err := n.cfg.Durable.OutboxFor(class)
		if err == nil {
			var ib *durable.Inbox
			if ib, err = n.cfg.Durable.InboxFor(class); err == nil {
				return ob, ib
			}
		}
		n.log.Warn("dace: durable state unavailable; certified class keeps its state in memory",
			"class", class, "err", err)
	}
	return durable.NewMemOutbox(), durable.NewMemInbox()
}

// certifiedGroup returns (creating lazily) the certified group of a
// class.
func (n *Node) certifiedGroup(class string) *multicast.Certified {
	g := n.group("cert", class)
	c, _ := g.(*multicast.Certified)
	return c
}

// CertifiedOutboxLen returns how many events of a certified class this
// node's outbox holds (a test aid: it creates the class's group if the
// node has not used the class yet).
func (n *Node) CertifiedOutboxLen(class string) int {
	return n.certifiedGroup(class).OutboxLen()
}

// PauseCertified parks a certified class's local delivery: incoming
// events keep being staged and acknowledged, but nothing reaches the
// engine until ResumeCertified. Durable subscriptions pause around
// their backlog replay so replay and live delivery never interleave.
func (n *Node) PauseCertified(class string) {
	if c := n.certifiedGroup(class); c != nil {
		c.Pause()
	}
}

// ResumeCertified releases PauseCertified and delivers the held events
// to the engine, in arrival order, on the caller.
func (n *Node) ResumeCertified(class string) {
	if c := n.certifiedGroup(class); c != nil {
		c.Resume()
	}
}

// certSubscribersFor lists the durable subscribers of a certified
// class across the domain.
func (n *Node) certSubscribersFor(class string) []multicast.CertSubscriber {
	var subs []multicast.CertSubscriber
	n.routes.ForEachConforming(class, func(node string, info core.SubscriptionInfo) {
		id := info.DurableID
		if id == "" {
			id = node // fall back to the node address as identity
		}
		subs = append(subs, multicast.CertSubscriber{DurableID: id, Addr: node})
	})
	return subs
}

// refreshCertSubscribers pushes the routing plane's durable-subscriber
// view into every live certified group, one refresh at a time, and
// notes the table generation the view is at least as new as.
func (n *Node) refreshCertSubscribers() {
	n.certMu.Lock()
	defer n.certMu.Unlock()
	gen := n.routes.Gen() // read before the table is: a change in between shows as a newer generation
	n.mu.Lock()
	groups := n.groupsSnapshotLocked()
	var awaited []string
	for key := range groups {
		if key.proto == "cert" { // no certified group, no timer
			awaited = n.awaitedLocked()
			break
		}
	}
	n.mu.Unlock()
	for key, g := range groups {
		if c, ok := g.(*multicast.Certified); ok && !n.setCertView(c, key.class, awaited) {
			gen = 0 // no generation is 0: the next publish tries again
		}
	}
	n.certGen.Store(gen)
}

// setCertView gives a certified group the routing plane's view of its
// class, with the members awaited, and reports whether the group took
// it.
func (n *Node) setCertView(c *multicast.Certified, class string, awaited []string) bool {
	if err := c.SetView(n.certSubscribersFor(class), awaited); err != nil {
		n.log.Warn("dace: certified membership update failed",
			"stream", streamName("cert", class), "err", err)
		return false
	}
	return true
}

// awaitGrace is how long a member of the view may go unheard while the
// certified outboxes wait for it, when AdTTL is unset; with AdTTL set it
// is AdTTL, the silence after which the domain takes a node for dead.
const awaitGrace = 10 * time.Second

// awaitedLocked returns the members of the view the certified outboxes
// wait to hear from (Certified.SetView): those, but for self, with no
// advertisement on record that entered the view less than the grace
// ago. One silent longer is taken for down or for no dace node, and
// waiting for it would hold every certified entry from then on; the
// identities it turns out to host, should it speak later, are owed only
// what has not retired by then. awaitEnd is armed for the first
// grace to run out. The routing table's lock nests inside n.mu.
func (n *Node) awaitedLocked() []string {
	grace := n.cfg.AdTTL
	if grace <= 0 {
		grace = awaitGrace
	}
	now := n.cfg.Clock.Now()
	var next time.Duration
	awaited := n.routes.Unheard(n.peers, n.self)
	awaited = slices.DeleteFunc(awaited, func(m string) bool {
		left := n.joined[m].Add(grace).Sub(now)
		if left > 0 && (next == 0 || left < next) {
			next = left
		}
		return left <= 0
	})
	if next > 0 && !n.closed {
		n.awaitEnd.Reset(next)
	}
	return awaited
}
