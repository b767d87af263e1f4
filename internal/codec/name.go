package codec

// A Name names one publication: the incarnation of the group that
// published it and the count of that group's publications, from 1 (the
// CBCAST/ISIS message name, (sender, sequence)). Every hop agrees on it
// (paper §3.1.2, the reified message): a link carries the count, and the
// incarnation only where the link's binding does not name it (see
// SealLink). It is minted from an atomic counter, with no lock and
// nothing random: two publications of one group never share a count,
// and a group's next incarnation is a new one (multicast.Group.NextName).
//
// A Name's text is its two numbers in 16 lowercase hex digits each.
// That is also how 128 random bits read that earlier builds minted as
// IDs, so such an ID parses as the Name whose text it is (ParseName).
type Name struct {
	Inc uint64 // the publishing group's incarnation
	N   uint64 // the publication's count in it
}

// nameText is the length of a Name's text.
const nameText = 32

// IsZero reports whether n names nothing.
func (n Name) IsZero() bool { return n == Name{} }

// AppendText appends n's text to b.
func (n Name) AppendText(b []byte) []byte {
	for _, x := range [2]uint64{n.Inc, n.N} {
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[x>>shift&0xF])
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// String renders n's text in one allocation. Only what needs text calls
// it: a trace record, an outbox entry handed out for a relink.
func (n Name) String() string {
	var b [nameText]byte
	return string(n.AppendText(b[:0]))
}

// ParseName reads a Name's text, and reports whether text is one: 32
// lowercase hex digits.
func ParseName[T string | []byte](text T) (Name, bool) {
	if len(text) != nameText {
		return Name{}, false
	}
	var x [2]uint64
	for i := 0; i < nameText; i++ {
		d := nibble[text[i]]
		if d > 0xF {
			return Name{}, false
		}
		x[i/16] = x[i/16]<<4 | uint64(d)
	}
	return Name{Inc: x[0], N: x[1]}, true
}

// An Ident is an event's identity as the certified path keys it: its
// Name, or, for an ID text that is not a Name's, that text under a zero
// Name (no build since names writes one, but the disk goldens of earlier
// builds hold IDs such as "s0"). IdentOf gives one Ident for every
// spelling of an event, so an Ident keys a map; it holds no text for a
// Name, which renders only where text is needed (Text, AppendText): on
// disk and in traces.
type Ident struct {
	Name Name
	ID   string
}

// IdentOf is the Ident of an ID text: the Name it is the text of, not
// the zero Name, or else the text, copied from a byte slice.
func IdentOf[T string | []byte](text T) Ident {
	if name, ok := ParseName(text); ok && !name.IsZero() {
		return Ident{Name: name}
	}
	return Ident{ID: string(text)}
}

// Text returns the Ident's text: its ID, or else its Name rendered,
// which allocates.
func (i Ident) Text() string {
	if i.ID != "" || i.Name.IsZero() {
		return i.ID
	}
	return i.Name.String()
}

// AppendText appends the Ident's text to b.
func (i Ident) AppendText(b []byte) []byte {
	if i.ID != "" || i.Name.IsZero() {
		return append(b, i.ID...)
	}
	return i.Name.AppendText(b)
}

// nibble maps a lowercase hex digit to its value and any other byte to
// 0xFF.
var nibble = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i, c := range hexDigits {
		t[c] = byte(i)
	}
	return t
}()
