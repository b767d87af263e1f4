package multicast

import (
	"encoding/binary"
	"fmt"
	"slices"

	"govents/internal/rec"
	"govents/internal/vclock"
)

// This file is the wire record every protocol of the package exchanges:
// one layout, flagged so that a field a protocol does not use costs
// nothing, in the style of the envelope's record (internal/codec):
//
//	kind      1 byte    msgKind
//	flags     uvarint   one presence bit per optional field below
//	Seq       uvarint                                        flagSeq
//	Inc       uvarint                                        flagInc
//	Base      uvarint   Seq - Base (absolute when the        flagBase
//	                    record has no Seq)
//	Origin    uvarint length (1..maxWireString) + bytes      flagOrigin
//	ID        likewise                                       flagID
//	VC        uvarint count (1..maxWireVC), then per entry,  flagVC
//	          in ascending key order, a length-prefixed key
//	          and a uvarint value
//	Payload   the rest of the record
//
// A field travels exactly when it is non-zero, every uvarint is in its
// shortest form, and vector-clock keys ascend strictly, so a record has
// one encoding: what decodeMessage accepts, encodeMessage reproduces
// byte for byte. The decoder faces peers: every length is checked
// against the bytes that remain before anything is allocated.
//
// Flag bits 2 and 16 belonged to the ordered classes' own sequencing
// (a skip-range start and a global sequence), which rode on top of the
// link's; they are retired, and a record that sets one is rejected like
// any unknown flag. Flag bit 128 (a gossip rumor's Rounds to live) and
// kind 5 (a gossip event batch) belonged to a gossip protocol that is
// gone; they are retired likewise, the flag rejected as unknown and the
// kind read by no protocol. Kinds 3 and 4 were the certified class's own
// data frame and acknowledgement, before it rode the link; no protocol
// reads them either. Nodes of different eras do not interoperate (see
// "Link protocol" in the govents package documentation).

// msgKind enumerates protocol message types.
type msgKind byte

const (
	kindData msgKind = 1 // link data frame
	kindAck  msgKind = 2 // link acknowledgement: cumulative, and runs above it
	kindSkip msgKind = 6 // "step over": no payload, consumes no sequence; 3 to 5 are retired (see above)
)

// message is the wire record exchanged by all protocols in this package.
// Fields are used selectively per kind; unused fields stay zero and do
// not travel.
//
// Seq, Base and Inc belong to the link protocol (reliable.go): on a
// data frame Seq is the link sequence and Base the lowest link sequence
// the sender still owes this destination; a kindSkip link frame
// announces a Base alone; on an acknowledgement Seq is the cumulative
// acknowledgement, Payload lists the runs of link sequences received
// above it (seqset.AppendRuns), and Inc is the number the acknowledging
// node gave the incarnation it acknowledges (Mux). The sender's
// incarnation itself travels in the frame's prefix, not here. A
// certified link (certified.go) is the same link, with one field more
// on each frame: ID on a data frame, and Origin, the durable identity
// acknowledging, on an acknowledgement.
type message struct {
	Kind    msgKind
	Origin  string // original publisher where it is not the frame's sender, or a certified acknowledgement's durable identity
	Seq     uint64 // link sequence, or cumulative acknowledgement
	Inc     uint64 // an acknowledgement's number for the incarnation it acknowledges
	Base    uint64 // lowest link sequence still owed (1 <= Base; Base <= Seq on a data frame)
	ID      string // unique message ID
	VC      vclock.VC
	Payload []byte // aliases the decoded frame
}

const (
	flagSeq    = 1 << 0
	flagInc    = 1 << 2
	flagBase   = 1 << 3
	flagOrigin = 1 << 5
	flagID     = 1 << 6
	flagVC     = 1 << 8
	knownFlags = flagSeq | flagInc | flagBase | flagOrigin | flagID | flagVC

	// Field caps, enforced on encode and decode alike.
	maxWireString = rec.MaxString
	maxWireVC     = vclock.MaxEntries
)

// flags returns the presence bits of m's non-zero fields.
func (m *message) flags() uint64 {
	var f uint64
	if m.Seq != 0 {
		f |= flagSeq
	}
	if m.Inc != 0 {
		f |= flagInc
	}
	if m.Base != 0 {
		f |= flagBase
	}
	if m.Origin != "" {
		f |= flagOrigin
	}
	if m.ID != "" {
		f |= flagID
	}
	if len(m.VC) > 0 {
		f |= flagVC
	}
	return f
}

// baseDelta is Base's wire form: how far it trails Seq, or itself when
// the record has no Seq (a base announcement).
func (m *message) baseDelta() uint64 {
	if m.Seq != 0 {
		return m.Seq - m.Base
	}
	return m.Base
}

// messageSize returns the exact length of m's wire record, or an error
// when a field is outside what the layout can carry.
func messageSize(m *message) (int, error) {
	switch {
	case len(m.Origin) > maxWireString || len(m.ID) > maxWireString:
		return 0, fmt.Errorf("multicast: string field too long")
	case len(m.VC) > maxWireVC:
		return 0, fmt.Errorf("multicast: vector clock too large")
	case m.Seq != 0 && m.Base > m.Seq:
		return 0, fmt.Errorf("multicast: link base %d beyond link sequence %d", m.Base, m.Seq)
	}
	f := m.flags()
	n := 1 + rec.UvarintLen(f) + len(m.Payload)
	if f&flagSeq != 0 {
		n += rec.UvarintLen(m.Seq)
	}
	if f&flagInc != 0 {
		n += rec.UvarintLen(m.Inc)
	}
	if f&flagBase != 0 {
		n += rec.UvarintLen(m.baseDelta())
	}
	if f&flagOrigin != 0 {
		n += rec.LenStringLen(m.Origin)
	}
	if f&flagID != 0 {
		n += rec.LenStringLen(m.ID)
	}
	if f&flagVC != 0 {
		n += rec.UvarintLen(uint64(len(m.VC)))
		for k, v := range m.VC {
			if len(k) > maxWireString {
				return 0, fmt.Errorf("multicast: vector clock key too long")
			}
			n += rec.LenStringLen(k) + rec.UvarintLen(v)
		}
	}
	return n, nil
}

// appendMessage appends m's wire record to dst. The caller has sized
// dst with messageSize, which also vouches for the fields.
func appendMessage(dst []byte, m *message) []byte {
	f := m.flags()
	b := append(dst, byte(m.Kind))
	b = binary.AppendUvarint(b, f)
	if f&flagSeq != 0 {
		b = binary.AppendUvarint(b, m.Seq)
	}
	if f&flagInc != 0 {
		b = binary.AppendUvarint(b, m.Inc)
	}
	if f&flagBase != 0 {
		b = binary.AppendUvarint(b, m.baseDelta())
	}
	if f&flagOrigin != 0 {
		b = rec.AppendLenString(b, m.Origin)
	}
	if f&flagID != 0 {
		b = rec.AppendLenString(b, m.ID)
	}
	if f&flagVC != 0 {
		keys := make([]string, 0, len(m.VC))
		for k := range m.VC {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = rec.AppendLenString(b, k)
			b = binary.AppendUvarint(b, m.VC[k])
		}
	}
	return append(b, m.Payload...)
}

// encodeMessage renders a message as its wire record in one allocation.
func encodeMessage(m *message) ([]byte, error) {
	size, err := messageSize(m)
	if err != nil {
		return nil, err
	}
	return appendMessage(make([]byte, 0, size), m), nil
}

// decodeMessage parses a wire record into m, which the caller owns (a
// hot path keeps it on its stack). Nothing but the strings and the
// vector clock is allocated: m.Payload aliases data, which a transport
// hands over for its handler's call only and nobody may mutate.
func decodeMessage(data []byte, m *message) error {
	*m = message{}
	d := rec.Reader{Buf: data}
	m.Kind = msgKind(d.U8())
	f := d.Uvarint()
	if f&^knownFlags != 0 {
		d.Fail("unknown flags %#x", f&^knownFlags)
	}
	if f&flagSeq != 0 {
		m.Seq = d.NonZero("Seq")
	}
	if f&flagInc != 0 {
		m.Inc = d.NonZero("Inc")
	}
	if f&flagBase != 0 {
		switch delta := d.Uvarint(); {
		case m.Seq == 0:
			m.Base = delta
		case delta < m.Seq:
			m.Base = m.Seq - delta
		}
		if m.Base == 0 {
			d.Fail("link base below 1")
		}
	}
	if f&flagOrigin != 0 {
		m.Origin = d.Str("Origin")
	}
	if f&flagID != 0 {
		m.ID = d.Str("ID")
	}
	if f&flagVC != 0 {
		m.VC = vclock.Read(&d, true)
	}
	if d.Err != nil {
		*m = message{}
		return fmt.Errorf("multicast: decode message: %w", d.Err)
	}
	if d.Off < len(data) {
		m.Payload = data[d.Off:]
	}
	return nil
}
