package govents

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"govents/internal/clock"
	"govents/internal/codec"
	"govents/internal/core"
	"govents/internal/obvent"
)

// SubscribeDurable subscribes to certified obvents of type T under a
// stable durable identity — the paper's activate(long id) made
// first-class (§3.4.1). The subscription's lifetime exceeds the hosting
// process: the domain's durability plane (WithDurability) tracks, per
// certified class, which staged events this identity has consumed, and
// a process that crashed or shut down resumes by calling
// SubscribeDurable again with the same identity. Events published while
// the subscriber was down are replayed — synchronously, on the calling
// goroutine, in staging order per class — before the subscription goes
// live, so the handler observes every certified event exactly once
// above the at-least-once transport floor.
//
// The durable identity is claimed for T's conforming classes until the
// subscription is deactivated; a second SubscribeDurable with the same
// identity and overlapping classes fails with ErrDurableConflict. On a
// domain without WithDurability it fails with ErrNoDurability.
func SubscribeDurable[T Obvent](d *Domain, durableID string, handler func(T)) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrCannotSubscribe)
	}
	if durableID == "" {
		return nil, fmt.Errorf("%w: empty durable id", ErrCannotSubscribe)
	}
	if d.node == nil || d.dur == nil {
		return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, ErrNoDurability)
	}
	t := obvent.TypeOf[T]()
	var typeName string
	if t.Kind() == reflect.Struct {
		sample, ok := reflect.New(t).Elem().Interface().(Obvent)
		if !ok {
			return nil, fmt.Errorf("%w: %s is not an obvent class", ErrCannotSubscribe, t)
		}
		name, err := d.reg.Register(sample)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
		typeName = name
	} else {
		name, err := d.reg.RegisterInterface(t)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
		typeName = name
	}

	// The classes owed to this identity right now: every class with
	// durable state on disk that conforms to T, plus T's own class when
	// concrete. Certified classes that appear later start being owed
	// events from their first live delivery (see Manager.AckDelivered).
	classSet := map[string]bool{}
	for _, class := range d.dur.Classes() {
		if d.reg.ConformsTo(class, typeName) {
			classSet[class] = true
		}
	}
	if t.Kind() == reflect.Struct {
		classSet[typeName] = true
	}
	classes := make([]string, 0, len(classSet))
	for class := range classSet {
		classes = append(classes, class)
	}
	sort.Strings(classes)

	if err := d.claimDurable(classes, durableID); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
	}
	done := false
	defer func() {
		if !done {
			d.releaseDurable(classes, durableID)
		}
	}()

	// Park live certified delivery while the backlog replays, so the
	// replayed and live streams never interleave. Events arriving
	// meanwhile are staged durably and held; the resume delivers them,
	// on this goroutine, after the subscription activates.
	for _, class := range classes {
		d.node.PauseCertified(class)
	}
	defer func() {
		for _, class := range classes {
			d.node.ResumeCertified(class)
		}
	}()

	// seen bridges the replay→live handoff: an event staged during
	// replay can be both replayed (the inbox snapshot caught it) and
	// queued for live delivery; the live wrapper drops the second copy.
	// Both key the event's identity, which the replay reads from the
	// text its data record spells.
	seen := make(map[codec.Ident]bool)
	var seenMu sync.Mutex
	cod := d.eng.Codec()
	for _, class := range classes {
		ib, err := d.dur.InboxFor(class)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
		if _, err := ib.EnsureCursor(durableID); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCannotSubscribe, err)
		}
		err = ib.Replay(durableID, func(eventID, origin string, payload []byte) error {
			// The copying decode: payload is a slice of the record the log
			// read, which is the log's to hand out as it sees fit.
			if env, uerr := codec.Unmarshal(payload); uerr != nil {
				// A poison record must not wedge the subscription
				// forever: drop it, acknowledged, and say so.
				d.log.Warn("govents: durable replay: undecodable envelope; dropping",
					"class", class, "event", eventID, "origin", origin, "err", uerr)
			} else if o, derr := cod.Decode(env); derr != nil {
				d.log.Warn("govents: durable replay: undecodable obvent; dropping",
					"class", class, "event", eventID, "origin", origin, "err", derr)
			} else if v, ok := core.As[T](o); ok {
				handler(v)
			}
			id := codec.IdentOf(eventID)
			seenMu.Lock()
			seen[id] = true
			seenMu.Unlock()
			return ib.AckIdent(durableID, id)
		})
		if err != nil {
			return nil, fmt.Errorf("%w: replay %s: %w", ErrCannotSubscribe, class, err)
		}
	}

	cs, err := core.SubscribeDelivery(d.eng, nil, func(v T, del core.Delivery) {
		seenMu.Lock()
		dup := seen[del.Ident]
		if dup {
			delete(seen, del.Ident)
		}
		seenMu.Unlock()
		if dup {
			return // already delivered (and acknowledged) by replay
		}
		handler(v)
		if sem, ok := d.reg.ClassSemantics(del.Class); !ok || sem.Reliability != obvent.CertifiedDelivery {
			return // only certified deliveries are inbox-tracked
		}
		if aerr := d.dur.AckDelivered(del.Class, durableID, del.Ident); aerr != nil {
			d.log.Warn("govents: durable delivery ack failed; event will replay after restart",
				"class", del.Class, "durable", durableID, "event", del.Ident.Text(), "err", aerr)
		}
	})
	if err != nil {
		return nil, err
	}
	sub := &Subscription{s: cs, release: func() { d.releaseDurable(classes, durableID) }}
	if err := cs.ActivateDurable(durableID); err != nil {
		return nil, err
	}
	done = true
	return sub, nil
}

// claimDurable marks durableID active on each class, failing with
// ErrDurableConflict if any (class, identity) pair is already claimed.
func (d *Domain) claimDurable(classes []string, durableID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.durClaims == nil {
		d.durClaims = make(map[string]bool)
	}
	for _, class := range classes {
		if d.durClaims[class+"\x00"+durableID] {
			return fmt.Errorf("%w: %q on class %s", ErrDurableConflict, durableID, class)
		}
	}
	for _, class := range classes {
		d.durClaims[class+"\x00"+durableID] = true
	}
	return nil
}

// releaseDurable frees the (class, identity) claims taken by
// claimDurable.
func (d *Domain) releaseDurable(classes []string, durableID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, class := range classes {
		delete(d.durClaims, class+"\x00"+durableID)
	}
}

// startRetention arms the retention timer (DurabilityTuning.Retention)
// on clk (nil: the wall clock): every Interval ± 10% jitter it runs the
// same snapshot+compact pass as CompactDurable — outbox GC up to the
// consumer frontier, inbox compaction behind every cursor — so durable
// disk usage is reclaimed without manual calls. The jitter
// decorrelates a fleet of domains restarted together. Close stops the
// timer before the durable logs shut down.
func (d *Domain) startRetention(p RetentionPolicy, clk clock.Clock) {
	if clk == nil {
		clk = clock.Real{}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano())) // used by one pass at a time
	wait := func() time.Duration {
		if j := int64(p.Interval / 10); j > 0 {
			return p.Interval + time.Duration(rng.Int63n(2*j+1)-j)
		}
		return p.Interval
	}
	d.retain.Init(clk, func() {
		if err := d.dur.Compact(); err != nil {
			d.log.Warn("govents: retention compaction failed; will retry next tick",
				"domain", d.name, "err", err)
		}
		d.retain.Reset(wait())
	})
	d.retain.Reset(wait())
}
