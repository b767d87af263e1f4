package dace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"govents/internal/core"
	"govents/internal/obvent"
	"govents/internal/rec"
)

// maxAdBytes bounds a control-channel advertisement payload, on encode
// and decode alike. A frame beyond it is rejected before the decoder
// sees it (and counted via routing.Table.NoteAdRejected), and the
// decoder allocates in proportion to the bytes it is handed: the control
// plane must not let one corrupt or hostile peer allocate unbounded
// decode state.
const maxAdBytes = 1 << 20

// subscriptionAd is the reflexive control obvent: the paper's
// subscription/unsubscription requests disseminated as obvents (§4.2).
// Seq orders a node's ads (receivers apply only newer ones, so a late
// joiner is not blocked behind ads it never received), and two forms
// travel on the control channel:
//
//   - A full snapshot (Delta false): Subs is the node's complete
//     subscription set at Seq. Idempotent; receivers apply the newest.
//   - A delta (Delta true): Subs are additions and Removed are removals
//     (by subscription ID) relative to the state at BaseSeq. Receivers
//     apply a delta only on top of exactly BaseSeq and drop it
//     otherwise. A node stamps its ads on the control link in Seq order
//     and the link releases one sender's frames in the order stamped,
//     so a delta misses its base only when the chain broke (a peer
//     joined in the middle of it); the node's next snapshot mends that.
//
// Node is the sender: a receiver refuses an ad whose Node is not the
// control link's origin of the frame.
//
// Epoch is the sender's process-incarnation boot stamp. A receiver
// seeing a higher epoch than recorded for Node forgets the previous
// incarnation's routing state (its ad sequence died with it); a lower
// one marks a late retransmission from a dead incarnation and the whole
// ad is dropped. Zero disables the check.
//
// Advertised filters are canonical filter.Marshal bytes
// (filter.MarshalCanonical), so identical filters of different
// subscribers are byte-identical and deduplicate as routing plan keys.
//
// On the wire an ad is a record in the one-encoding-only idiom of the
// multicast record (package rec):
//
//	kind       1 byte   0xA1 snapshot, 0xA2 delta
//	Node       uvarint length (1 to 65535) + bytes
//	Epoch      zigzag varint
//	Seq        uvarint, at least 1
//	BaseSeq    delta only: uvarint Seq - BaseSeq, at least 1
//	Subs       uvarint count, then per subscription
//	  flags      1 byte: 1 Filter, 2 DurableID, 4 Certified
//	  ID         uvarint length (1 to 65535) + bytes
//	  TypeName   likewise
//	  Filter     flag 1: uvarint length (at least 1) + bytes
//	  DurableID  flag 2: uvarint length (1 to 65535) + bytes
//	Removed    delta only: uvarint count, then as many length-prefixed IDs
//
// No gob stream starts with either kind byte (see codec's
// envelopeFormat), so an ad of the gob-framed era is refused at its
// first byte.
type subscriptionAd struct {
	obvent.Base
	Node    string
	Epoch   int64
	Seq     uint64
	Delta   bool
	BaseSeq uint64
	Subs    []core.SubscriptionInfo
	Removed []string
}

const (
	adSnapshot = 0xA1
	adDelta    = 0xA2

	subFilter    = 1 << 0
	subDurable   = 1 << 1
	subCertified = 1 << 2
)

// encodeAd renders an advertisement as its wire record.
func encodeAd(ad *subscriptionAd) ([]byte, error) {
	if ad.Seq == 0 || (ad.Delta && ad.BaseSeq >= ad.Seq) {
		return nil, fmt.Errorf("dace: encode ad: sequence %d on base %d", ad.Seq, ad.BaseSeq)
	}
	// What the decoder would refuse is refused here, not by every peer.
	var err error
	str := func(b []byte, what, s string) []byte {
		if err == nil && (s == "" || len(s) > rec.MaxString) {
			err = fmt.Errorf("dace: encode ad: %s of %d bytes", what, len(s))
		}
		return rec.AppendLenString(b, s)
	}
	b := append(make([]byte, 0, 64+48*len(ad.Subs)), adSnapshot)
	if ad.Delta {
		b[0] = adDelta
	}
	b = str(b, "Node", ad.Node)
	b = binary.AppendVarint(b, ad.Epoch)
	b = binary.AppendUvarint(b, ad.Seq)
	if ad.Delta {
		b = binary.AppendUvarint(b, ad.Seq-ad.BaseSeq)
	}
	b = binary.AppendUvarint(b, uint64(len(ad.Subs)))
	for i := range ad.Subs {
		s := &ad.Subs[i]
		var flags byte
		if len(s.Filter) > 0 {
			flags |= subFilter
		}
		if s.DurableID != "" {
			flags |= subDurable
		}
		if s.Certified {
			flags |= subCertified
		}
		b = str(append(b, flags), "ID", s.ID)
		b = str(b, "TypeName", s.TypeName)
		if flags&subFilter != 0 {
			b = append(binary.AppendUvarint(b, uint64(len(s.Filter))), s.Filter...)
		}
		if flags&subDurable != 0 {
			b = str(b, "DurableID", s.DurableID)
		}
	}
	if ad.Delta {
		b = binary.AppendUvarint(b, uint64(len(ad.Removed)))
		for _, id := range ad.Removed {
			b = str(b, "removed ID", id)
		}
	}
	if err == nil && len(b) > maxAdBytes {
		err = fmt.Errorf("dace: encode ad: %d bytes exceed %d", len(b), maxAdBytes)
	}
	return b, err
}

// decodeAd parses an advertisement's wire record. It faces peers: every
// count and length is checked against the bytes that remain before
// anything is allocated for it, and only a record encodeAd would have
// written is accepted. The result keeps nothing of data, which is valid
// for the control channel's upcall only.
func decodeAd(data []byte) (*subscriptionAd, error) {
	r := rec.Reader{Buf: data}
	ad := &subscriptionAd{}
	switch kind := r.U8(); kind {
	case adSnapshot:
	case adDelta:
		ad.Delta = true
	default:
		r.Fail("unknown ad kind %#x", kind)
	}
	ad.Node = r.Str("Node")
	ad.Epoch = r.Varint()
	ad.Seq = r.NonZero("Seq")
	if ad.Delta {
		if back := r.NonZero("base distance"); back <= ad.Seq {
			ad.BaseSeq = ad.Seq - back
		} else {
			r.Fail("base %d below sequence %d", back, ad.Seq)
		}
	}
	// A subscription takes at least five bytes: flags, ID, TypeName.
	if n := r.Count("subscriptions", 0, 5); n > 0 {
		ad.Subs = make([]core.SubscriptionInfo, n)
	}
	for i := range ad.Subs {
		s := &ad.Subs[i]
		flags := r.U8()
		if flags&^(subFilter|subDurable|subCertified) != 0 {
			r.Fail("unknown subscription flags %#x", flags)
		}
		s.ID = r.Str("ID")
		s.TypeName = r.Str("TypeName")
		if flags&subFilter != 0 {
			s.Filter = slices.Clone(r.Span("Filter", 1, maxAdBytes))
		}
		if flags&subDurable != 0 {
			s.DurableID = r.Str("DurableID")
		}
		s.Certified = flags&subCertified != 0
		if r.Err != nil {
			break
		}
	}
	if ad.Delta {
		// A removed ID takes at least two bytes.
		if n := r.Count("removals", 0, 2); n > 0 {
			ad.Removed = make([]string, n)
		}
		for i := range ad.Removed {
			ad.Removed[i] = r.Str("removed ID")
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("dace: decode ad: %w", err)
	}
	return ad, nil
}
