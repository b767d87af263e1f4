package multicast

// FIFO is publisher-side ordering: two obvents published through the
// same publisher are delivered to every member in publication order
// (paper §3.1.2, FIFO ordered obvents). Messages from different
// publishers are not ordered relative to each other.
//
// That is the order of a Reliable link, so the class is the in-order
// link under its own name and adds nothing to it: no sequence, no
// hold-back, no timer. It is interest-aware for free. BroadcastSplit
// ships frames only to the destinations the publisher's routing plane
// marks interested, and a destination that was pruned consumed no link
// sequence, so there is no hole for it to wait behind and no marker to
// send it.
type FIFO struct{ *Reliable }

var _ Group = (*FIFO)(nil)

// NewFIFO creates a FIFO-ordered group on the given stream.
func NewFIFO[U Upcall](mux *Mux, stream string, deliver U, opts Options) *FIFO {
	return &FIFO{NewReliable(mux, stream, deliver, opts)}
}
