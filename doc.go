// Package govents is the public, unified API of the repository: the
// paper's type-based publish/subscribe primitives (conf_icdcs_DammEG04,
// §2.3.3) and their sibling abstractions — tuple spaces, topics, RMI —
// composed behind one Domain facade over a shared substrate.
//
// # The two primitives
//
// The paper integrates publish and subscribe into the language. The Go
// rendering maps its constructs one-to-one:
//
//	paper (§2.3.3)                              govents
//	------------------------------------------  ----------------------------------------
//	class StockQuote extends Obvent {...}       type StockQuote struct { obvent.Base; ... }
//	Subscription s =
//	  subscribe (StockQuote q)                  s, err := govents.SubscribeInactive(d,
//	    { return q.getPrice() < 100; }            filter.Path("GetPrice").Lt(filter.Float(100)),
//	    { print(q.getPrice()); };                 func(q StockQuote) { fmt.Println(q.Price) })
//	s.activate();                               err = s.Activate()
//	publish q;                                  err = d.Publish(ctx, q)
//	s.deactivate();                             err = s.Deactivate()
//
// Most applications use Subscribe, which returns the subscription
// already active; SubscribeInactive keeps the paper's explicit
// two-phase form. Subscribing to a type receives all of its subtypes
// (type-based matching, §2.2): supertypes by struct embedding or
// interface satisfaction.
//
// # Activation is not a barrier
//
// The paper's activate and deactivate (§3.4.1, §3.4.2) say when a
// subscription starts and stops receiving; they do not say what happens
// to an obvent already inside the process. Here an envelope is matched
// against the subscription table current when its dispatch lane
// dispatches it, not the one current when it arrived. Activate and
// Deactivate are therefore not barriers for envelopes already queued: a
// subscription activated while an envelope waits on a lane receives it,
// one deactivated meanwhile does not. Deactivate returning guarantees
// only that no dispatch starting afterwards delivers to the
// subscription; a dispatch under way, and deliveries already handed to
// the subscription's executor, may still run the handler. A caller that
// needs a cut waits for the lanes to drain (Domain.LaneStats: every
// Queued zero, which covers a lane's queue and its loan buffers, and
// the Enqueued total equal to Stats().EventsIn) before it toggles.
//
// # Thread semantics
//
// §3.3.5 makes multi-threading the default "except in the case of
// ordered obvents". What a subscription is promised: unordered obvents
// are handled concurrently, up to the limit set by SetMultiThreading or
// SetSingleThreading (which also holds across a change of limit), they
// start in the order they were queued, and none waits behind a running
// handler while the limit has room; ordered obvents are handled alone
// and in order. What it is not promised is a goroutine per delivery: a
// handler runs on whichever goroutine dequeued the obvent, and the same
// goroutine may run the next one.
//
// # Domains
//
// A Domain is one process's membership in a govents domain, opened
// local (in-process loopback) or distributed (DACE, §4.2) over any
// Transport:
//
//	d, err := govents.Open(ctx, "quoter")                          // local
//	d, err := govents.Open(ctx, "quoter",
//	        govents.WithTransport(tr), govents.WithPeers(addrs...)) // distributed
//
// Distributed domains advertise subscriptions reflexively (ads are
// themselves obvents), compile advertised filters into publisher-side
// routing plans (WithPlacement), shard inbound dispatch across lanes
// (WithDispatchLanes), garbage-collect silent peers (WithAdTTL), and
// honor the QoS semantics composed onto obvent types by embedding:
// reliable, certified, FIFO/causal/total order, timeliness, priority
// (§3.1.2).
//
// Delivery errors surface as wrapped sentinels (ErrClosed,
// ErrUnregistered, ErrBadFilter, ErrCannotPublish, ...); discriminate
// with errors.Is.
//
// # The wire format
//
// Event payloads travel in one encoding, compiled once per class
// (varint integers, raw IEEE floats, length-prefixed strings — no
// per-event type metadata). It is a property of the class, not chosen
// per destination, and every publication is marshaled once, whatever
// protocol carries it. Compilation is deterministic per layout, so
// every node of one build encodes each class alike. The compiler covers
// every layout gob encoded:
//
//   - a type with a GobEncoder, BinaryMarshaler or TextMarshaler pair,
//     checked in gob's order, travels as the method's output, length
//     prefixed, and its fields are never walked; time.Time is one, so a
//     Timely class (TimelyBase) compiles like any other;
//   - chan and func fields are skipped, as gob skips them;
//   - uintptr is an unsigned varint, and a map key may hold pointers;
//   - an interface field travels as the registered name of the class it
//     holds (empty for nil), then that class's encoding, length prefixed;
//     the receiver resolves the name in its own registry;
//   - a recursive type compiles, and a value nests through recursion and
//     interface fields at most 1000 levels deep, on encode (a cyclic
//     value is an error, not a hang) and on decode.
//
// The one narrowing is the interface field: gob also accepted
// predeclared types and anything gob.Register'ed there, while here the
// field must hold a registered obvent class, exactly (not a pointer to
// one), or Publish fails with ErrCannotPublish. No code in this
// repository puts a value in an interface field of an obvent. The
// compiler refuses only what gob refused too (unsafe.Pointer, and chan
// or func outside a struct field), and Publish of such a class fails
// with the compiler's error. gob carries nothing on the data path;
// remote invocation (rmi) is all it still carries.
//
// The control plane left gob too. A subscription advertisement and a
// filter's marshaled form (filter.Marshal, which ads carry) are binary
// records in the one-encoding idiom of the link record below — a kind
// byte, shortest uvarints, every count and length checked against the
// bytes that remain, trailing bytes and every second spelling of a
// value refused — so equal filters have equal bytes, and a node parses
// an advertised filter once per subscription and advertised bytes,
// whatever the number of ads that repeat it. This was a stated wire
// break, not negotiated: a gob-framed ad of an earlier build is refused
// at its first byte and counted (RoutingStats.AdsRejected), and its
// filters would not parse, so upgrade a domain together. The layouts
// are in internal/dace/ad.go and internal/filter/marshal.go. On the
// routing and matching path, plans whose filters reference only
// structural fields evaluate by partial decode — extracting just those
// fields from the encoded bytes, stepping over marshaled and interface
// fields by their length — and the event is materialized only
// for actual matches and deliveries, or when a filter reads a method or
// a field inside a marshaled type. A clone for a subscriber is one
// decode of the payload, except for a class with no pointer, slice or
// map anywhere, whose subscribers share one immutable box. Domain.Stats
// exposes the codec counters (WireEncodes, WireDecodes, PartialDecodes,
// WireMaterializations, ...). The compiled program is a class's one
// encoding: there is no per-class hook, generated or hand-written, that
// replaces it (LM1: serialization needs no application code). The psc
// generator emits typed adapters and lifted filters, nothing that
// touches the payload.
//
// # Envelope wire format
//
// Around the payload, every publication travels — and is stored in
// durable inboxes, outboxes and spill logs — as one envelope record, a
// fixed binary layout written and read by hand (no reflection; reading a
// plain FIFO envelope takes the struct and one block that ID, Type and
// Publisher are slices of, plus the payload's copy where the reader
// does not own the bytes):
//
//	format       1 byte   0xE1
//	flags        1 byte   1 has-priority, 2 has-birth, 4 has-vector-clock
//	Enc          1 byte   payload encoding, always 1 (the compiled one)
//	ID           uvarint length (at most 65535) + bytes
//	Type         likewise
//	Publisher    likewise
//	Seq          uvarint
//	GlobalSeq    uvarint
//	Reliability  zigzag varint
//	Ordering     zigzag varint
//	Priority     zigzag varint
//	TTL          zigzag varint, nanoseconds
//	PubNanos     zigzag varint
//	Birth        has-birth only: zigzag varint Unix seconds, uvarint nanoseconds
//	VC           has-vector-clock only: uvarint count (1 to 65535), then per
//	             entry a length-prefixed key and a uvarint value
//	Payload      uvarint length + bytes, ending the record
//
// The decoder faces peers and disks: it checks every length against
// the bytes that remain and the field's cap before allocating, and
// rejects an unknown format byte, unknown flags, a uvarint not in its
// shortest form and trailing bytes. A reader that goes on using its
// buffer (a durable segment, a spill log) gets the payload copied out;
// the receive path, which owns its frame, reads it in place.
//
// Who owns each buffer, and how often a payload is copied per hop: the
// publisher encodes the event once, into one buffer, behind room for
// the record's header sized from what Publish knows (every header field
// but the ordering metadata, the publishing node included). The first
// seal of that buffer writes the header, in the link form or in full,
// into the room, directly in front of the payload, so the record is the
// header and the payload where they lie; the envelope, the record, the
// link's retransmission queue and a certified outbox all share that one
// buffer, and nothing writes to it again. The right to the room is the
// buffer's, not the envelope value's: a copy of the envelope sealed
// after it (another ID), or a header the room cannot hold (a vector
// clock or a sequence number added later), gets a record of its own by
// copy, and a record already handed to a link or an outbox is never
// written over. The multiplexer then builds the frame (stream name, link
// header, record) in a buffer it reuses once the transport's Send has
// returned, since no transport keeps what Send is given: on the
// publisher a payload is copied once on its way to the transport's
// write buffer, into the frame, and no frame costs an allocation. A
// best-effort or certified record goes to all its destinations in that
// one frame; the links of the other classes number each destination's
// frames, so each gets a frame, and a copy, of its own. On the
// subscriber the TCP transport reads each frame into a buffer of its own
// (that side's one copy), which the link, the delivery queue and the
// envelope share by slicing; the handler's value is decoded out of it.
//
// Two forms of the record exist, and they differ only in which strings
// are empty. Stored (outbox, inbox, spill log), every field is spelled
// out: the record outlives the link it came by and the address of the
// node that wrote it, and replay reads it with neither. So is the
// record of a certified class on the wire, because that record is the
// one its outbox and its subscriber's inbox keep. On the link of every
// other class the record leaves out what the link already says: Type is
// empty, because a channel carries one class (§4.2) and the frame's
// stream names it, and Publisher is empty when the publisher is the
// node that published, because the multicast origin names it (the
// transport's hello, or the Origin field of a frame the total-order
// sequencer relays or gossip forwards). The receiving node puts both
// back before the engine sees the envelope, which is field for field
// the published one; a Publisher that is not the publishing node
// travels as it is. An empty string was always a legal field, so there
// is no flag, no second layout and no second decoder, and the saving is
// the two strings: about a tenth of the wire bytes of a small event.
// The break is one way and stated, not negotiated: this build reads a
// full record on any link (a fixture written by the build before it
// pins that), while a build from before the link form finds no class in
// a link record, so no subscription to hand it to, and drops it without
// a count. Upgrade a domain together.
//
// Builds before this one sent a class their compiler refused as gob,
// payload encoding 0: every Timely class, and any class with an
// interface field, a custom marshaler, a chan or func field or a
// recursive type. This build writes only 1 and refuses any other value
// ("unsupported payload encoding 0"), counted as a decode error on a
// live frame and acknowledged and logged as a poison record on replay;
// an older build refuses this build's payload of such a class as a
// compiled payload of a class it has no program for. A class that
// compiled before travels byte for byte as it did, both ways, and its
// stored records open field for field. The break is stated, not
// negotiated: upgrade a domain together, and drain durable directories
// that hold such classes with the old build first.
//
// The format byte is the only version marker; there is no second decode
// path. Builds before this format framed the envelope with
// encoding/gob, so a durable or spill directory they wrote is not
// readable: each such record fails with "unknown envelope format" and is
// dropped and counted (replay acknowledges it as a poison record; a live
// frame counts as a decode error). Start from empty directories, or
// drain them with the old build first.
//
// # Link protocol
//
// Under the envelope sit three thin layers, each with a few bytes of
// header: the reliable link that the reliable and ordered classes
// (§3.1.2) ride, the stream multiplexer, and the TCP transport. A
// 60-byte FIFO event crosses the wire as one data frame of about 130
// bytes, and a sixteenth of an acknowledgement.
//
// Every multicast protocol speaks one record: a kind byte, a uvarint of
// presence flags, then only the fields that are not zero, the payload
// last and unprefixed (it is the rest of the record):
//
//	kind      1 byte
//	flags     uvarint: 1 Seq, 4 Epoch, 8 Base, 32 Origin, 64 ID, 128 Rounds,
//	          256 VC (2 and 16 are retired and rejected as unknown)
//	Seq       uvarint
//	Epoch     uvarint
//	Base      uvarint, counted down from Seq (absolute when there is no Seq)
//	Origin    uvarint length (1 to 65535) + bytes
//	ID        likewise
//	Rounds    1 byte
//	VC        uvarint count (1 to 65535), then per entry, keys ascending, a
//	          length-prefixed key and a uvarint value
//	Payload   the remaining bytes
//
// A record has exactly one encoding (shortest uvarints, no flagged
// zeros, sorted clock keys), and the decoder, which faces peers, rejects
// everything else, checks each length against the bytes that remain
// before it allocates, and hands the payload on as a slice of the frame
// it was given rather than a copy.
//
// The reliable layer numbers what it sends per link, one (sender,
// destination) pair, instead of naming each message. A data frame
// carries:
//
//	Epoch  the sender's incarnation: the microsecond it created the group,
//	       strictly increasing within a process. A receiver that meets a
//	       later epoch than it knows starts the link afresh, so a restarted
//	       sender, numbering from 1 again, is delivered and not mistaken for
//	       its own duplicates; a frame of an earlier epoch is dropped.
//	Seq    the link sequence, 1, 2, 3, … per destination, never reused, and
//	       continued across the destination leaving and rejoining.
//	Base   the lowest link sequence the sender still owes this destination.
//	       The receiver treats everything below it as settled, so a frame
//	       dropped while the destination was out of the membership never
//	       leaves a hole the receiver waits behind.
//
// The sender of a frame is the transport's: the reliable layer has no
// relay, and an origin travels only on the frames of a total-order
// sequencer, which publishes on its members' behalf. The receiver
// remembers, per sender, the epoch and one set of link sequences: the
// cumulative sequence, at or below which everything is settled, and the
// runs of sequences received above it (one run per hole, at most 256),
// whose frames it holds; a frame is a duplicate when the set has its
// sequence. The certified acknowledgement and the durable cursors keep
// the same set ("Durability"). Frames are released to the class above
// in link-sequence order: a first arrival that is next in line goes up
// at once, together with the run it was the hole below, and any other
// is held while a hole sits below it. A hole closes when the missing
// frame arrives, at first or by retransmission, or when a Base passes
// it; what a receiver holds is what its sender has in flight, and a
// frame that would open a 257th hole is dropped unacknowledged and
// comes back by retransmission. This order is the only sequencing there
// is: FIFO is the link, total order is the sequencer's links, and
// causal order adds a vector clock but no numbers. A sender retransmits
// to a destination until it acknowledges or leaves the membership; it
// never gives up on a member. When it abandons a destination that left,
// it drops what it owed there and announces the new Base in a frame of
// its own, of the "step over" kind: Epoch and Base, no Seq and no
// payload, consuming no sequence. A receiver that holds frames behind
// the abandoned ones releases them on it, not on the next publication,
// which may never come. An acknowledgement carries the epoch it
// answers, the cumulative sequence, and the 32 lowest runs beyond it,
// each as the distance from the run before and a length. It is sent
//
//   - when 16 data frames await acknowledgement;
//   - when the acknowledgement timer, a quarter of
//     Tuning.RetransmitInterval, finds any;
//   - at once for a frame arriving in a timer period in which no
//     acknowledgement has gone out yet, so a lone message is confirmed as
//     promptly as ever and only sustained traffic is batched.
//
// A duplicate counts like a first arrival: alone, it is answered at
// once (its earlier acknowledgement was lost); in a burst of
// retransmissions, the acknowledgement its first frame draws is
// cumulative and answers the rest.
//
// Both constants derive from the one existing knob: an acknowledgement
// is at most a quarter interval late, while the sender retransmits a
// frame only after it has gone a full RetransmitInterval since it was
// last sent. On a loss-free link nothing is sent twice. A sender never
// holds data back: only acknowledgements are batched, and over TCP,
// which keeps a connection's frames in order, a receiver holds a frame
// only across a reconnect. Both ends hold state in proportion to the
// traffic in flight and the peers they have met, and none per message
// delivered.
//
// The multiplexer prefixes each frame with its stream name (a two-byte
// length and the name), building it in a reused buffer for each Send:
// netsim.Transport's Send keeps nothing it is given, on every transport.
// A publication whose frame would exceed what one carries (16 MiB less
// the length word below, a bound the simulated network enforces too) is
// refused by Publish with ErrCannotPublish before any protocol stamps or
// persists it: no link sequence, no outbox entry, nothing resent on any
// tick. One with no frame to send, delivered only at the publishing
// node, is not refused, bar a certified one, which its outbox may owe
// to a subscriber elsewhere later. The TCP transport keeps one outbound
// connection per destination, with a lock of its own: a peer that stops
// reading stalls the senders to it, for at most the two-second write
// deadline, and nobody else. The first frame on a connection is a
// hello, a four-byte word with the top bit set and the length of the
// sender's listen address in the rest, then the address (at most 512
// bytes); it names the sender of every frame that follows. Every other
// frame is a four-byte big-endian length and the payload, together at
// most 16 MiB. A frame before the hello, a second hello or an over-long
// address closes the connection and is logged; a reconnect says hello
// again.
//
// None of this is negotiated. Like the envelope record, the link
// layouts replaced their predecessors outright, twice: first a
// fixed-width record with a random 32-character ID per message, an
// acknowledgement per message and a sender address in every TCP frame;
// then the ordered classes' own sequence numbers, skip ranges and
// request IDs, carried in a second record nested inside the link's
// payload (FIFO and total-order payloads are now the envelope itself,
// and total-order requests travel on a link of their own). A node of
// one era drops another's frames as undecodable or, where only the
// nested record differs, hands up payloads that fail to decode as
// envelopes and are counted as decode errors: upgrade a domain's nodes
// together.
//
// # Interest-aware multicast
//
// Every dissemination class prunes to the interested subset of the
// domain, not just the unordered ones. FIFO and causal publishers
// consult the routing plane and ship data frames only to nodes with a
// passing subscription; for total order the publication routes to the
// sequencer, which filters as it broadcasts. Pruning costs an ordered
// class nothing, because order rides the link sequence and a link is
// one (sender, destination) pair: a node that was not sent a frame
// consumed no number, so it has no gap to wait behind, and neither FIFO
// nor total order ever sends it anything in the frame's place. Every
// member of a total-order class sees a subsequence of the one order in
// which the sequencer's broadcasts took their place on its links.
// Causal order needs one thing more. A pruned node misses the
// publisher's clock tick, and a third party's event that causally
// follows the pruned one would wait there forever, so on its
// retransmission tick a causal publisher sends the members it did not
// send its latest tick a payload-less marker carrying its clock, which
// the receiver merges without a delivery. Gossip classes bias their
// per-round fanout toward interested nodes while adding one uniformly
// random edge per event and round, so rumors still cross interest
// boundaries. Pruning fails open — an unevaluable
// event or unknown node counts as interested — and preserves each
// class's ordering contract exactly; WithOrderedPruning(false) restores
// full-group broadcasts. RoutingStats reports the saved traffic as
// PrunedSends, and the causal clock markers as SkipFrames.
//
// # Overload and flow control
//
// Inbound dispatch degrades gracefully instead of growing without
// bound. WithLaneQueueBound caps what every dispatch lane holds in
// memory, and WithOverloadPolicy selects what a full lane does:
// OverloadBlock (the default) makes the lane's intake wait, losing
// nothing; OverloadDropOldest sheds the oldest envelope the lane holds
// with a counted reason; and OverloadSpill overflows to a per-lane
// durable segment log (requires WithDurability) that drains back — in
// order — once the lane catches up, so bursts cost latency rather than
// loss.
// FIFO-ordered traffic dispatches on per-publisher parallel sub-lanes
// (only causal, total and prioritary classes serialize), and idle
// lanes steal whole-publisher batches from overloaded siblings
// through a loan protocol that preserves each publisher's delivery
// order exactly.
//
// What the bound bounds is everything the lane owes: its queue plus
// the arrivals of publishers on loan, which wait in the lane's loan
// buffers for the thief to come back. That sum is LaneStat.Queued, it
// is what a blocked intake waits on and what DropOldest sheds from
// (the queue first), and above it a lane has only the one batch a
// thief holds in hand, already in dispatch. A lane under OverloadSpill
// is not stolen from: a loaned publisher's overflow could not go to
// the lane's disk log without the lane refilling it behind the thief's
// back, a per-publisher reorder. On the serial lane the spill log
// keeps arrival order and each record's priority, so under Spill a
// Prioritary obvent overtakes within the in-memory window only: what
// is on disk waits its turn, whatever its priority. Causal and total
// arrival order is never affected.
//
// The bound bounds the lane, not the node, and under OverloadBlock the
// wait does not reach a publisher. The goroutine a full lane blocks is
// the one that delivers to the engine: a distributed class's delivery
// queue, which the link fills as frames arrive and acknowledges as it
// fills, or a local domain's publish queue. Neither queue blocks or has
// a bound, so the backlog a Block lane refuses waits there, in memory
// and in arrival order, outside LaneStat.Queued; the link keeps
// acknowledging and Publish keeps returning. In a probe, a reliable
// receiver whose upcall blocked, as a full Block lane's push does,
// acknowledged all of 20,000 broadcasts while one upcall had been
// entered: the other 19,999 waited in its delivery queue. Backpressure
// that reaches Publish is not implemented.
//
// One stuck handler cannot stall the rest of the domain:
// WithSlowConsumerBudget(stall, mailbox) quarantines a subscription
// whose handler exceeds its stall budget onto a private bounded
// mailbox; ordered deliveries beyond the mailbox are dropped for that
// subscription only, counted under ErrSlowConsumer, and the
// subscription rejoins normal dispatch once it drains. Domain.Stats
// exposes the accounting (Shed, Spilled, SpillDrained, Steals,
// StolenEvents, Quarantines, SlowConsumerDrops) and Domain.LaneStats
// the per-lane depths, bounds and policies.
//
// # Durability
//
// Certified delivery (§3.1.2) promises that "even if a notifiable
// temporarily disconnects or fails, it will eventually deliver the
// obvent"; the paper keeps the promise with obvents logged to stable
// storage and subscriptions that outlive their hosting process —
// activate(long id), §3.4.1. The durability plane renders both:
//
//	d, err := govents.Open(ctx, "quoter",
//	        govents.WithTransport(tr),
//	        govents.WithDurability("/var/lib/quoter"))  // the plane's root dir
//	sub, err := govents.SubscribeDurable(d, "quoter-1", // activate(id)
//	        func(q QuoteCertified) { ... })
//
// WithDurability gives the domain a per-class segment log under the
// directory: an append-only, CRC-framed, size-rolled publisher outbox
// (write-ahead of any transmission) and a subscriber-side staging inbox
// that records every certified arrival durably before its offset joins
// an acknowledgement to the publisher. A certified class's state lives
// in one place, shared with no other class: with WithDurability under
// dir/<class>, where it survives a crash of either end; without, in
// memory, where it survives a subscriber's disconnection only. Both are
// the same outbox and inbox, whose logs without a directory write to
// nothing. One retirement rule holds for both: an outbox entry leaves
// memory at the acknowledgement that completes it (every registered
// durable identity has acknowledged it), and its record leaves the disk
// when compaction drops the segment holding it.
//
// Sync policy (fsync per record vs batched) and segment size come from
// WithDurabilityTuning; Domain.DurableStats exposes the plane's
// counters and Domain.CompactDurable drops fully consumed segments.
// Under SyncAlways a crash loses nothing a returned call wrote. Under
// SyncBatch it loses what each log wrote since its last sync, at most a
// segment: enumerating every crash point of 20 events, two consumers
// and 128-byte segments, an outbox lost up to 4 entries and 4
// acknowledgement records, an inbox up to 3 staged events and 5
// acknowledgements. A lost acknowledgement costs a redelivery; a lost
// entry, or a staged event already acknowledged, is not sent again.
// DurabilityTuning.Retention schedules that compaction on a
// jittered background ticker instead — reclaiming only behind the
// slowest consumer frontier, never a record still owed to a durable
// identity — and DurableStats reports the reclaimed bytes and records.
//
// SubscribeDurable is the paper's activate(long id): the subscription
// is owned by the durable identity, not the process. A new incarnation
// that subscribes under the same identity first replays — synchronously,
// before going live — every staged event the identity has not consumed,
// then resumes live delivery, so the handler observes each certified
// event published during the downtime exactly once above the
// at-least-once transport floor. Identities are claimed per class
// (ErrDurableConflict on collision; ErrNoDurability without
// WithDurability) and released by Subscription.Deactivate. The
// DomainGroup harness (OpenGroup) drives crash-restart, partition and
// torn-log chaos schedules against exactly these guarantees.
//
// A publisher writes its outbox record for a certified event and
// nothing else, unless it is one of the class's subscribers (the
// routing table holds its own active subscriptions under its own
// address): only as a subscriber of its own class does it stage the
// event in its own inbox, acknowledge it to its outbox under its own
// durable identities and deliver it locally — in-process, never by
// sending itself the frame. Activation is not a barrier here either: an
// event published while the publisher's own subscription is away
// (deactivated, or not yet back after a restart) is not staged, but
// stays owed to that identity by the outbox, which redelivers it once
// the subscription is back. Redelivery resends what a subscriber has
// not acknowledged only once it has been out for a full
// Tuning.RetransmitInterval, the rule of the link protocol: a tick
// leaves alone what was first sent since the tick before. Payloads are
// handed on, not copied: internal/durable.Outbox and internal/codec
// state who may keep and who may alias one.
//
// The certified class speaks two frames of the link protocol's record:
//
//	data  Seq    the entry's outbox offset: 1, 2, 3, … per class and
//	             publisher, in append order, and across a restart of a
//	             publisher with a durability directory
//	      Epoch  the publisher's incarnation, as on a reliable link
//	      ID     the event's identity, which the subscriber deduplicates by
//	      Payload
//	ack   Origin   a durable identity of the subscriber
//	      Epoch    the incarnation whose offsets it names
//	      Payload  runs of offsets, each as the distance from the run before
//	               (from 0, for the first) and a length, as a link
//	               acknowledgement lists them
//
// A subscriber stages an arrival, a duplicate like any other, then adds
// its offset to the set of offsets it owes that publisher, the set a
// reliable link keeps, and sends its runs when the reliable link would
// acknowledge ("Link protocol": 16 frames, the quarter-interval timer,
// at once for the first frame of a quiet period), once under each
// durable identity it holds for the class, and empties it; a node with
// two identities is still sent one data frame per event. Each outbox
// consumer and each inbox cursor keeps the same set again, of the
// offsets it acknowledged: a frontier and the runs above it, in memory
// as many as the holes in what it acknowledged, and on disk, in a
// snapshot, the frontier and every offset above it. The
// publisher books an acknowledgement as one outbox record, whatever it
// names, and drops one of another epoch: an in-memory outbox numbers
// from 1 again after a restart. Neither frame is negotiated. On the
// wire, both ways: a build from before offsets acknowledges by event
// ID, which retires nothing here, and finds no ID in this build's
// acknowledgements; upgrade a domain together. On disk, one way: this
// build replays the older record of one acknowledged offset, the older
// build refuses an outbox holding a record of runs.
//
// # Observability
//
// Every Domain records per-stage latency histograms on the delivery
// pipeline — lock-free, log-bucketed, on by default (WithTelemetry(false)
// turns them off). Domain.Histograms returns the snapshots keyed by
// stage:
//
//	stage             span
//	----------------  -------------------------------------------------
//	publish_to_route  Publish accepted → routing plan resolved
//	route_to_write    destinations resolved → transport write returned
//	wire_to_lane      frame off the wire → decoded and lane-enqueued
//	lane_wait         lane enqueue → lane dequeue (queueing delay)
//	dispatch          lane dequeue → handler returned
//	e2e               publisher's Publish → handler returned, cross-node
//
// The e2e stage is timed against a publish timestamp carried in the
// envelope; an envelope that carries none (a zero stamp) produces no
// e2e sample. WithMetricsAddr serves the histograms,
// drop counters and lane-depth gauges as Prometheus text on /metrics
// (plus expvar on /debug/vars and the profiler under /debug/pprof);
// Domain.MetricsAddr reports the bound address. WithTraceHook streams
// sampled per-event TraceEvent records — failure outcomes (expired,
// decode_error, handler_panic, executor_closed) bypass sampling and are
// also counted in Domain.DroppedByReason. WithLogger injects an
// *slog.Logger for anomalies that have no error-return path (recovered
// handler panics, undecodable frames, failed certified redeliveries);
// the default discards them.
//
// # The abstraction family
//
// The same Domain reaches the paper's comparison abstractions — the
// tuple space (§6.3) via Domain.TupleSpace, topic-based
// publish/subscribe (§2.3.2) via Domain.Topics, and RMI (§5.4) via
// Domain.RMI — so one process composes interaction styles over one
// substrate. Subpackages govents/filter and govents/obvent carry the
// filter DSL and the obvent markers; govents/netsim supplies the
// simulated network.
package govents
