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
// # Filters and accessors
//
// A filter reads an obvent through accessor methods and fields, as the
// paper's filters call q.getPrice() (LP2, §3.3.4); each path is
// compiled once per class. An accessor is a plain call, with no
// reflection and no allocation, when it has a value receiver, no
// parameters and an unnamed basic result (bool, string, an int, uint or
// float kind): the class's table of such calls is built from its type
// the first time a path compiles against it, so no generic call needs
// to name the class, and a publisher-only node evaluating its
// subscribers' filters calls them directly too. Any other accessor is a
// reflect call: a named result such as type Price float64, an accessor
// on a nested value, and every accessor of a class an interface holds
// by value (a pointer, or a struct of one pointer field). Both calls
// give the same value, so accessors must be pure either way, and one
// that panics fails its condition either way: the filtering host ships
// the event (fail-open), the subscriber drops it.
//
// A publisher evaluates its subscribers' filters on the value a
// subscriber will decode. When that is the value it published (a
// class published by value, with no pointer, slice, map or interface
// in it, every field exported, no marshaler and no float32), it routes
// on that value without decoding its own payload. Otherwise it decodes:
// an accessor reading an unexported field, a field whose marshaler
// drops state, or a pointer-receiver accessor of a class published as a
// pointer sees, at the publisher, what every subscriber will see.
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
// Queued zero and the Enqueued total equal to Stats().EventsIn) before
// it toggles.
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
// with the compiler's error. gob carries nothing outside tests, where
// it is the wire codec's oracle: remote invocation (rmi) encodes its
// records, arguments and results with wire programs too.
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
// a field inside a marshaled type (at a subscriber, decoded in place,
// with no box). A typed subscriber's clone is a copy of the decoded
// event, held by its queue slot and then by its handler's argument, with
// no box either: the payload is decoded once per match, or once per
// event for a class with no pointer, slice or map anywhere, whose plain
// copy is already deep. An interface-typed subscription takes the event
// boxed; such subscriptions to a class of the second kind share one
// immutable box. Domain.Stats
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
// plain FIFO envelope off a link allocates nothing, and a stored record
// takes one block that its ID, Type and Publisher are slices of; a
// reader that does not own the bytes takes a struct and the payload's
// copy as well):
//
//	format       1 byte   0xE1
//	flags        1 byte   1 has-priority, 2 has-birth, 4 has-vector-clock;
//	                      link form only: 8 has-incarnation, 16 has-Type,
//	                      32 has-Publisher, 64 has-TTL, 128 link form
//	Enc          1 byte   payload encoding, always 1 (the compiled one)
//	ID           stored form only: uvarint length (at most 65535) + bytes,
//	             the name's text
//	N            link form only: uvarint, the name's count
//	Inc          link form, has-incarnation only: uvarint, not 0, the
//	             name's incarnation
//	Type         uvarint length (at most 65535) + bytes; link form: has-Type only
//	Publisher    likewise; link form: has-Publisher only
//	(retired)    stored form only: two uvarints, written 0, read and dropped
//	Reliability  zigzag varint
//	Ordering     zigzag varint
//	Priority     zigzag varint; link form: has-priority only
//	TTL          zigzag varint, nanoseconds; link form: has-TTL only
//	PubNanos     zigzag varint
//	Birth        has-birth only: zigzag varint Unix seconds, uvarint nanoseconds
//	VC           has-vector-clock only: uvarint count (1 to 65535), then per
//	             entry a length-prefixed key and a uvarint value
//	Payload      stored form: uvarint length + bytes, ending the record;
//	             link form: the rest of the record
//
// The decoder faces peers and disks: it checks every length against
// the bytes that remain and the field's cap before allocating, and
// rejects an unknown format byte, unknown flags, a uvarint not in its
// shortest form and trailing bytes. A reader that goes on using its
// buffer (a durable segment, a spill log) gets the payload copied out;
// the receive path, whose frame is valid for the call that hands it up,
// reads it in place, and whatever keeps it past that call copies it.
//
// Who owns each buffer, and how often a payload is copied per hop: the
// publisher encodes the event once, into one buffer, behind room for
// the record's header sized from what Publish knows (every header field
// but the ordering metadata, the publishing node included). The first
// seal of that buffer writes the header, in the link form or in full,
// into the room, directly in front of the payload, so the record is the
// header and the payload where they lie, and the envelope and the
// record share that one buffer for the length of Publish. Whatever
// keeps the record or its payload past that copies it, into fixed-size
// chunks it recycles (internal/chunk): a link's retransmission queue,
// which gives a copy back as acknowledgements pass it, and lets a timer
// period resend from a copy only while it holds its chunk; a certified
// outbox, until the entry retires; a delivery to the publishing node
// that waits for another goroutine's delivery or a pause; a dispatch
// lane, until its handlers have run. So every record is free when
// Publish returns, and the publisher's next event is encoded into the
// same buffer. The right to the room is the buffer's, not the envelope
// value's: a copy of the envelope sealed after it (another ID), or a
// header the room cannot hold (a vector clock added later), gets a
// record of its own by copy. The multiplexer then builds
// the frame (stream key, link header, record) in a buffer it reuses
// once the transport's Send has returned, since no transport keeps what
// Send is given: on the publisher a payload is copied once on its way
// to the transport's write buffer, into the frame (and, on a reliable
// link, once more into the link's log), and no frame costs an
// allocation. A best-effort or certified record goes to all its
// destinations in that one frame; the links of the other classes number
// each destination's frames, so each gets a frame, and a copy, of its
// own. On the subscriber the kernel writes each frame into its TCP
// connection's one receive buffer (no allocation of a frame's own), and
// the link and the envelope share it by slicing for the call that hands
// it up; the lane copies the payload into its chunks, and the handler's
// value is decoded out of that copy. The envelope struct is not
// allocated per event at either end: the publisher's comes from a pool
// and goes back, with its buffer, when Publish returns; on the
// subscriber a class's channel decodes every frame into one envelope it
// rewrites, and a lane queues a copy by value, dispatches it from a
// slot of its own and zeroes it.
//
// Two forms of the record exist. Stored (outbox, inbox, spill log),
// every field is spelled out: the record outlives the link it came by
// and the address of the node that wrote it, and replay reads it with
// neither. So is the
// record of a certified class on the wire, because that record is the
// one its outbox and its subscriber's inbox keep. On the link of every
// other class the record leaves out what the link already says: Type is
// empty, because a channel carries one class (§4.2) and the frame's
// stream names it, and Publisher is empty when the publisher is the
// node that published, because the multicast origin names it (the
// transport's hello, or the Origin field of a frame the total-order
// sequencer relays). The receiving node puts both
// back before the engine sees the envelope, which is field for field
// the published one; a Publisher that is not the publishing node
// travels as it is. The link form then sends only what is not zero:
// Type, Publisher and TTL each under a flag of its own, Priority only
// with has-priority (a Priority without it does not travel), no
// payload length (the payload is the rest of the record), and neither
// of the two sequence numbers the envelope once had, which nothing set
// or read and which are gone; for a plain FIFO event that is 7 bytes
// less. A stored record sets none of the link form's flags and keeps
// its layout byte for byte: it writes 0 where the retired sequence
// numbers were, and the decoder reads whatever an older build wrote
// there and drops it, so every stored record still opens, and one an
// older build wrote with a sequence number is written back with 0 in
// its place.
//
// An event is named by where it came from, as CBCAST and ISIS name a
// message (Birman, Schiper and Stephenson, TOCS 1991): its name is the
// incarnation of the channel that published it and the count of that
// channel's publications, from 1. internal/dace names each publication
// as it publishes it, by its class's channel, from an atomic counter
// (multicast.Group.NextName): no lock, nothing random. No two
// publications of one incarnation share a count, and no two
// incarnations of a channel share an incarnation: a reliable, ordered
// or certified channel's is its link's epoch, wall-clock microseconds
// that increase within a process and across its restarts, and a
// best-effort channel, whose stream has no epochs, takes one the same
// way. A name is unique per publisher; a certified one across
// publishers too, since a subscriber's inbox keys certified events by
// the name alone: a certified channel's incarnation is its epoch mixed
// with its publisher's address (64-bit FNV-1a), so two publishers whose
// epochs agree still name their events apart, but for a collision of
// the two mixes. The link form carries the count, a uvarint, and the
// incarnation only where the frame's binding does not name it: a
// reliable, FIFO or causal record travels from its publisher on a
// numbered link, whose receiver resolves the epoch from the frame's
// number ("Link protocol") and puts it back, as it puts back the class
// and the publisher. A best-effort record, and a total-order record,
// which the sequencer relays on a link of its own, carry the
// incarnation: an epoch takes 8 bytes as a uvarint until the year 4253,
// a count below 2^56 at most 8 more, so a name never takes more than
// the 16 bytes the random ID of earlier builds did. In memory a name is
// two numbers (internal/codec.Name). It is rendered as text, its two
// numbers in 16 lowercase hex digits each, only on disk and in traces:
// a span the trace hook takes, a certified class's stored record, which
// spells it, its outbox, which keys the text (a block of 16 texts at a
// time), and the staging inbox's data record. The staging inbox and the
// durable acknowledgements key the name as its two numbers
// (internal/codec.Ident; an ID text that is no name's, which no build
// since names writes, keys as that text), so nothing renders or copies
// text between a certified frame and its durable acknowledgement. The
// text is the same at the publisher and at every subscriber, so trace
// records join by EventID. A stored record spells the name's text where
// the ID always was, so its layout did not move; the 128 random bits
// earlier builds minted as IDs read as the name whose text they are, so
// every stored record they wrote opens, as that name with no ID text,
// and is written back byte for byte.
//
// The breaks are one way and stated, not negotiated: this build reads a
// full record on any link (a fixture written by the build before it
// pins that), while a build from before the link form finds no class in
// a link record, so no subscription to hand it to, and drops it without
// a count, and one from before the link form's flags refuses this
// build's link records as naming unknown flags. Flag 8 was a packed
// random ID in the build before this one: each build misreads the
// other's link records (most fail to decode; the rest carry names and
// fields that are not the published ones). Upgrade a domain together.
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
// header: the reliable link that the reliable, ordered and certified
// classes (§3.1.2) ride, the stream multiplexer, and the TCP transport.
// A FIFO event whose payload is 44 bytes crosses the wire as one data
// frame of 70 bytes (69 and the TCP length prefix, one byte), and a
// sixteenth of an 11-byte acknowledgement
// (TestFIFOFrameBytesAfterHandshake in internal/dace pins the frames
// without the prefix). The stream's name and the sender's incarnation
// cross each link once, in a handshake, and a key and a one-byte number
// stand for them afterwards.
//
// Every multicast protocol speaks one record: a kind byte, a uvarint of
// presence flags, then only the fields that are not zero, the payload
// last and unprefixed (it is the rest of the record):
//
//	kind      1 byte
//	flags     uvarint: 1 Seq, 4 Inc, 8 Base, 32 Origin, 64 ID, 256 VC
//	          (2, 16 and 128 are retired and rejected as unknown; kinds
//	          3, 4 and 5 are retired too, and no protocol reads them)
//	Seq       uvarint
//	Inc       uvarint
//	Base      uvarint, counted down from Seq (absolute when there is no Seq)
//	Origin    uvarint length (1 to 65535) + bytes
//	ID        likewise
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
// destination) pair, instead of naming each message. Every frame of a
// link is of one incarnation of its sender's group, whose epoch is the
// microsecond it created the group, strictly increasing within a
// process; the multiplexer carries it (below) and hands it over with
// each frame. A receiver that meets a later epoch than it knows starts
// the link afresh, so a restarted sender, numbering from 1 again, is
// delivered and not mistaken for its own duplicates; a frame of an
// earlier epoch is dropped. A data frame carries:
//
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
// sequence. The certified class rides this link, and the durable
// cursors keep the same set ("Durability"). Frames are released to the
// class above
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
// its own, of the "step over" kind: a Base, no Seq and no payload,
// consuming no sequence. A receiver that holds frames behind
// the abandoned ones releases them on it, not on the next publication,
// which may never come. An acknowledgement carries, as Inc, the number
// its sender's multiplexer gave the incarnation it answers (below), the
// cumulative sequence, and the 32 lowest runs beyond it, each as the
// distance from the run before and a length; a sender takes only an
// acknowledgement that names the number the destination gave its
// current epoch. It is sent
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
// A group's links share one timer, and it runs only from the first
// frame or acknowledgement they owe until they owe nothing: the period
// after the last acknowledgement ends the run, and the next frame queued
// or received starts a new one, which counts as a new timer period (an
// idle stretch passes as the periods it lasted would have). So an
// acknowledgement is still at most a quarter interval late, a lone frame
// after a quiet spell is still answered at once, and an idle class costs
// no timer wake-up and no goroutine (an idle domain wakes only for the
// AdTTL heartbeat and the retention pass, when those are set). A node's
// timers, its causal flushes, its heartbeat and its retention pass run
// on one clock, which its tests can move by hand.
//
// The multiplexer names each frame's stream, a channel's name such as
// dace/fifo/<class>, by its key: the name's 32-bit FNV-1a hash, which
// each group computes once. A group with an incarnation (every reliable
// and ordered class, and the certified one) gives the multiplexer its
// epoch, and its frames are numbered; a best-effort group's are not. A
// frame has one of six forms, told apart by its first byte:
//
//	short     0, the key (4 bytes, big-endian), the record
//	spelled   1, the name's length (2 bytes), the name, the record
//	known     2, a key: the receiver resolves it to the name it was spelled;
//	          on a numbered stream, then the epoch it was spelled and the
//	          number it gave that epoch (uvarints)
//	unknown   3, a key: the receiver resolves it to no stream; on a
//	          numbered stream, then the number the frame carried (a uvarint)
//	numbered  4, the key, the number (a uvarint), the record
//	incarnate 5, the name's length, the name, the epoch (a uvarint), the
//	          record
//
// A sender spells a stream to a destination until the destination has
// confirmed it, and sends it short from then on. The multiplexer frames
// a record once, in a reused buffer, behind room for the longest
// prefix, and writes each destination's prefix in front of the record
// before its Send, so a fan-out's destinations get whichever form each
// needs from one copy of the record. A receiver answers a spelled frame
// that reached a group (one it has, or one the lazy-creation fallback
// made from the name) with known. On a numbered stream that answer
// gives the incarnation a number: the receiver numbers the incarnations
// of each origin under each key 1, 2, 3, … and never gives a number
// twice in its lifetime; a spelled frame of the bound epoch gets the
// bound number again, one of a later epoch the next number, and one of
// an earlier epoch, a straggler of a dead incarnation, is dropped
// unanswered. A numbered frame goes to the group with the epoch its
// (origin, key, number) is bound to; one whose number is not the
// origin's current one under the key (a straggler, or any frame after
// the receiver restarted) draws unknown with its number and is dropped,
// and a sender that gave that number forgets the confirmation and
// spells again. Since a number is never reused, a dead incarnation's
// frame cannot pass for the live one's, and an acknowledgement naming
// it is refused. Two numbered streams with one key are told apart by
// their numbers. An unnumbered stream is resolved by its key alone, so
// a receiver confirms it only when no other stream it handles has the
// key, and a sender records the confirmation only when no other stream
// it sends has it: such a key is never confirmed, and both streams stay
// spelled. The reliable classes resend a dropped frame. A lost
// handshake frame costs one spelled frame more or one short frame
// dropped, and the next frame draws another; an acknowledgement that
// overtakes the known frame of its incarnation is kept and taken when
// that frame arrives. A key is a hash of the name, not a number
// the sender picks, so a receiver's key cannot come to mean another
// stream across a sender's restart, and a restarted receiver that has
// made its groups resolves an unnumbered key at once. The multiplexer
// builds every frame in a reused buffer for each Send:
// netsim.Transport's Send keeps nothing it is given, on every
// transport. A publication whose frame, in its longest form (spelled
// with the epoch, or short with the widest number), would exceed what
// one carries (16 MiB less the longest length prefix below, a bound the
// simulated network enforces too) is refused by Publish with
// ErrCannotPublish before any protocol stamps or persists it, so a
// publication refused once is refused every time: no link sequence, no
// outbox entry, nothing resent on any tick. One with no frame to send,
// delivered only at the publishing node, is not refused, bar a
// certified one, which its outbox may owe to a subscriber elsewhere
// later. The TCP transport keeps one outbound connection per
// destination, with a lock of its own: a peer that stops reading stalls
// the senders to it, for at most the two-second write deadline, and
// nobody else. The first frame on a connection is a hello: the bytes
// 0x80 0x00 (a two-byte spelling of zero, which no data frame's length
// takes), the length of the sender's listen address in two bytes, then
// the address (at most 512 bytes); it names the sender of every frame
// that follows. Every other frame is its payload's length as a uvarint
// in its shortest form (one byte below 128 bytes, two below 16 KiB, at
// most four) and the payload, together at most 16 MiB. A frame before
// the hello, a second hello, an over-long address, and a length not in
// its shortest form, longer than four bytes or over the bound close the
// connection and are logged; a reconnect says hello again.
//
// A transport hands each frame it receives to its handler for that call
// only. The TCP transport reads a connection's frames into one buffer
// of its own, hands each out as a slice of it, and moves the unread
// bytes to the buffer's front when its tail cannot hold the next frame
// (a frame longer than the buffer grows it); the simulated network gives
// every delivery, a duplicate's too, a copy of its own and writes poison
// over it once the handler returns, so that a test fails wherever a
// frame is kept without a copy. Whatever keeps received bytes past the
// call copies them into recycled chunks: a frame a link holds behind a
// hole, one a causal group holds for its predecessors, a delivery a
// release list leaves to another goroutine or to a pause, and a
// dispatch lane's payload.
//
// None of this is negotiated. Like the envelope record, the link
// layouts replaced their predecessors outright, three times: first a
// fixed-width record with a random 32-character ID per message, an
// acknowledgement per message and a sender address in every TCP frame;
// then the ordered classes' own sequence numbers, skip ranges and
// request IDs, carried in a second record nested inside the link's
// payload (FIFO and total-order payloads are now the envelope itself,
// and total-order requests travel on a link of their own); then the
// stream name in front of every frame, which gave way to the key and
// its handshake, together with the packed ID of the envelope's link
// form; then the epoch on every link record, the envelope's zero fields
// and a four-byte TCP length word, which gave way to the numbered
// handshake, the link form's presence flags and the uvarint length;
// then the certified class's own data frame and acknowledgement (kinds
// 3 and 4, now retired), which gave way to the link's frames; then the
// envelope's packed random ID, and the certified frame's second copy of
// it, which gave way to the name's count and the incarnation the
// binding names. A
// node of one era drops another's frames as undecodable or, where only
// the nested record differs, hands up payloads that fail to decode as
// envelopes and are counted as decode errors. On TCP the build before
// this one closes a connection from this build at its first data frame,
// whose length prefix it reads as a length over its bound; this build
// finds no incarnation on the older one's frames of a reliable, ordered
// or certified class and drops them, and no record behind the name of
// its spelled frames. Upgrade a domain's nodes together. Within one era, a receiver that restarts answers unknown to
// the short frames already on their way: a reliable class resends them,
// spelled, and the lazily made group delivers them once and in order,
// while a best-effort frame to it may be lost. A number is never reused
// within a receiver's lifetime, not across it: a frame that outlived
// both its receiver's restart and its sender's could meet a number the
// new receiver gave again. Over TCP none can, since a connection's
// frames die with either end.
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
// follows the pruned one would wait there forever, so a causal
// publisher, a RetransmitInterval after a publication that left a member
// behind, sends the members it did not send its latest tick a
// payload-less marker carrying its clock, which the receiver merges
// without a delivery. Pruning fails open — an unevaluable event or unknown
// node counts as interested — and preserves each class's ordering
// contract exactly; it is always on. RoutingStats reports the saved
// traffic as PrunedSends, and the causal clock markers as SkipFrames.
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
//
// Every lane is the same arrival-ordered queue, drained by its own
// goroutine alone. A causal or total-order class dispatches on the lane
// its name hashes onto, and every other envelope, FIFO and prioritary
// included, on the lane its publisher hashes onto; so one publisher's
// envelopes, and one ordered class's, run in their order on their lane,
// and a wedged lane holds up only the publishers and ordered classes
// that hash onto it. Priority reorders only the deliveries waiting for a
// subscription's handler: a Prioritary obvent overtakes every
// lower-priority delivery queued for its subscription, whichever lane
// it came by, but not the envelopes still waiting on its own lane to be
// matched.
//
// What the bound bounds is the lane's queue: LaneStat.Queued, what a
// blocked intake waits on and what DropOldest sheds from; above it the
// lane has only the envelope in dispatch. The spill log keeps arrival
// order.
//
// The bound bounds the lane, and under OverloadBlock the wait reaches
// the goroutine that feeds it: nothing queues in front of a lane. That
// is the publisher in a local domain, or for a publication delivered at
// its own node; on TCP it is the reader of the connection the frame
// came by, which stops reading, and so acknowledging, that peer's
// frames until the lane has room (the peer keeps retransmitting into
// the socket, whose buffers bound it). A goroutine that releases into a
// group while another delivers for it (a second peer's reader, a netsim
// delivery) lists its release and goes on: that backlog is acknowledged
// and waits, in order, outside LaneStat.Queued. In a probe over TCP, a
// reliable receiver whose upcall blocked left 1,999 of 2,000 broadcasts
// unacknowledged at the sender until it returned, then handled all
// 2,000 in order (TestReliableBlockedUpcallStopsAcks). No window carries
// the wait back to a remote Publish.
//
// One stuck handler cannot stall the rest of the domain:
// WithSlowConsumerBudget(stall, mailbox) quarantines a subscription
// whose handler exceeds its stall budget onto a private bounded
// mailbox; ordered deliveries beyond the mailbox are dropped for that
// subscription only, counted under ErrSlowConsumer, and the
// subscription rejoins normal dispatch once it drains. Domain.Stats
// exposes the accounting (Shed, Spilled, SpillDrained, Quarantines,
// SlowConsumerDrops) and Domain.LaneStats the per-lane depths, bounds
// and policies.
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
// when compaction drops the segment holding it. An entry published while
// a member of the view has not been heard from (no advertisement on
// record) also waits until that member advertises, registering the
// identities it hosts, or leaves the view: a subscriber whose
// advertisement arrives late is owed what was published before it, even
// once the identities heard from first have acknowledged it. The wait is
// bounded: a member silent for WithAdTTL's TTL (10 s when it is unset)
// since it entered the view is taken for down, and what it held back
// retires. The wait lives in memory only, so a publisher that restarts
// meanwhile keeps only what its registered identities have not
// acknowledged.
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
// DurabilityTuning.Retention schedules that compaction on a jittered
// timer instead, on the node's one clock, which also runs its links'
// timers — reclaiming only behind the slowest consumer frontier, never
// a record still owed to a durable identity — and DurableStats reports
// the reclaimed bytes and records.
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
// stays owed to that identity by the outbox, which sends it once the
// subscription is back, over the link to its own address: the one
// frame a publisher sends itself.
//
// A certified class rides the reliable link ("Link protocol") with
// three differences. Its log is the outbox: each link entry carries an
// outbox entry and knows its offset (1, 2, 3, … per class and
// publisher, continued across a restart of a publisher with a
// durability directory), and the link numbers its frames as any link
// does, so a link never goes back below a sequence its receiver has
// passed. A subscriber stages a first arrival before its link takes it,
// and never a frame the link would refuse; a duplicate is only
// acknowledged. The link's members are the addresses of the durable
// identities: when the identities at an address change, what the outbox
// owes them and the link does not hold is queued on it, a
// RetransmitInterval later, so a re-addressed identity gets its backlog
// there; an address they all left is dropped as a reliable member is,
// and the outbox still owes them what it dropped. Each keeper copies:
// the outbox copies a record into chunks it recycles as entries retire
// (internal/durable.Outbox), and the link copies what it queues, as a
// reliable link does, so the publisher's buffer is free when Publish
// returns.
//
// The data frame is the link's, and its record is the stored one, which
// spells the event's name, the identity the staging inbox deduplicates
// by: the subscriber reads it off the record's header, and the frame
// carries it once (a payload that is not an envelope's record, which
// internal/multicast's Certified also takes, travels with an ID field
// of the link record instead). The acknowledgement is the link's plus
// Origin, a durable identity of the subscriber. The identities at a
// node are the ones the view lists at its address, by the one rule both
// ends apply to the advertised subscriptions: a subscription's durable
// ID, and the node's address for a subscription that has none. A
// subscriber acknowledges when the link would, once under each identity
// the view lists at its address, or under its address when it lists
// none; a node with two identities is sent one data frame per event,
// and an entry leaves its link once the cumulative acknowledgement of
// each has passed it. The publisher takes an
// acknowledgement of its current incarnation from an identity at the
// address that sent it, and books as one outbox record the offsets of
// the entries that address's link sent at the sequences it names: an
// entry the link never sent there is not booked. Each outbox consumer
// and each inbox cursor keeps the link's set again, of the offsets it
// acknowledged: in memory a frontier and the runs above it, on disk, in
// a snapshot, the frontier and every offset above it.
//
// The staging inbox deduplicates a named event by its count, in the runs
// of counts it keeps per publisher incarnation (that set once more), and
// keeps the event's offset only while a cursor owes it: from its staging,
// when some durable identity has a cursor then, to the acknowledgement
// of the last cursor that owed it. An event named by an ID text that is
// no name's (an earlier build's, such as "s0") keeps its offset for the
// inbox's life, as every event did before. So an inbox holds
// O(incarnations + holes + in flight) in memory, not an entry per event
// ever staged. It keeps an incarnation's runs while it is open, after
// Compact has dropped every record of it too, so in-process a redelivery
// of a compacted event is still a duplicate; reopened, it rebuilds the
// runs and the index from the records its logs hold, and knows nothing
// of what compaction dropped. That is the rule across a compaction as it
// was. The records did not change, so an inbox an earlier build wrote
// opens as after any restart.
//
// A subscriber releases one publisher incarnation's certified events in
// link order, which is offset order but for the backlog queued when an
// identity comes to its address, and a restarted subscriber replays in
// staging order; across a publisher's restart, what the old
// incarnation's link held behind a hole goes out first. A Causal or Total ordering declared on
// a certified class is not provided: internal/dace carries every
// certified class on its certified channel, which orders per publisher
// only.
//
// Neither frame is negotiated. On the wire, both ways: kinds 3 and 4,
// an earlier build's certified frames, are retired here, and this
// build's certified frames are read by no protocol there; the build
// before this one stages a data frame of this one, which carries no ID
// field, under the empty ID, so it delivers one such event and
// acknowledges the rest as redeliveries of it. Upgrade a domain
// together. On disk, one way, unchanged by the wire: this build replays
// the older record of one acknowledged offset, the older build refuses
// an outbox holding a record of runs. Names did not change what is on
// disk: an outbox, an inbox or a spill log an earlier build wrote opens
// as it was, and an upgraded subscriber's inbox deduplicates by the
// random IDs it staged as well as by the names it stages now, which
// cannot be taken for one of those but by chance (a 64-bit collision
// at least).
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
// e2e sample. The telemetry plane only times and traces: every count
// is the engine's, one counter per fact, and stays live with telemetry
// off. Domain.DroppedByReason is a view of Domain.Stats (expired,
// decode_error, handler_panic, executor_closed, overload_shed,
// slow_consumer), and the lane depth is LaneStat.Queued with its
// high-water mark. WithMetricsAddr serves the histograms, those
// counters and each lane's depth as Prometheus text on /metrics (plus
// expvar on /debug/vars and the profiler under /debug/pprof);
// Domain.MetricsAddr reports the bound address. WithTraceHook streams
// sampled per-event TraceEvent records; failure outcomes (every drop
// reason but overload_shed, which is counted under the lane's lock)
// bypass sampling. WithLogger injects an
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
//
// Domain.RMI shares the domain's transport, node and clock (package rmi
// has the details). On TCP a reply shares its connection with the
// domain's events: a handler's synchronous call to a peer whose
// connection its own full OverloadBlock lane is holding back fails with
// rmi.ErrTimeout after the call timeout rather than hanging.
package govents
