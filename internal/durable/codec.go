package durable

import (
	"encoding/binary"
	"fmt"

	"govents/internal/codec"
)

// Tiny length-prefixed encoding helpers shared by the outbox and inbox
// record formats. Records live inside CRC-verified segment frames, so
// decode errors here indicate a version/logic bug, not disk corruption —
// they are still surfaced as errors rather than panics so a mixed-
// version restart degrades loudly instead of crashing.

// appendBlob appends [u32 len][bytes]; a string goes in without a
// conversion's copy.
func appendBlob[T ~string | ~[]byte](dst []byte, b T) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// appendIdent appends an event's identity as the blob of its text,
// rendered in place.
func appendIdent(dst []byte, id codec.Ident) []byte {
	at := len(dst)
	dst = id.AppendText(append(dst, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// appendUint32 appends a big-endian u32.
func appendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// appendUint64 appends a big-endian u64.
func appendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// takeUint32 consumes a big-endian u32 from src.
func takeUint32(src []byte) (v uint32, rest []byte, err error) {
	if len(src) < 4 {
		return 0, nil, fmt.Errorf("durable: short uint32")
	}
	return binary.BigEndian.Uint32(src), src[4:], nil
}

// takeBlob consumes [u32 len][bytes] from src.
func takeBlob(src []byte) (blob, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("durable: short blob header")
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, fmt.Errorf("durable: short blob body (%d < %d)", len(src), n)
	}
	return src[:n], src[n:], nil
}

// takeUint64 consumes a big-endian u64 from src.
func takeUint64(src []byte) (v uint64, rest []byte, err error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("durable: short uint64")
	}
	return binary.BigEndian.Uint64(src), src[8:], nil
}
