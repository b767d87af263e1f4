package core

// queue is a FIFO over one array, oldest first, holding its items by
// value so that nothing is boxed on the way in or out: a dispatch lane's
// envelopes and a subscription's deliveries (executor). Live items are
// items[head:].
//
// One rule says when a queue keeps its array. Its high water is the
// most it held in the current or the previous window of queueWindow
// pops, and its keep size twice that, queueKeepMin at least. At the end
// of a window an array over four times the keep size is replaced by one
// of the keep size. Growth is append's, at most doubling, so a queue
// whose bursts vary up to fourfold grows its array once and reuses it,
// and after a one-time burst its array falls back within two windows of
// the traffic that follows. A queue that is never popped keeps its
// array, as it keeps its items.
type queue[E any] struct {
	items []E
	head  int
	// peak and prevPeak are the highest length of the current and the
	// previous window; pops counts the current window's pops.
	peak, prevPeak int
	pops           int
}

const (
	// queueWindow is the number of pops over which a queue's high water
	// is taken.
	queueWindow = 1024
	// queueKeepMin is the capacity below which a queue never replaces its
	// array: a small warm array costs less than re-growing it.
	queueKeepMin = 64
)

func (q *queue[E]) len() int { return len(q.items) - q.head }

// push appends e. A full array whose first half or more is popped slides
// its live items down instead of growing: fewer items move than were
// popped since the last slide, so the cost per item stays constant.
func (q *queue[E]) push(e E) {
	if n := len(q.items); n == cap(q.items) && q.head > 0 && 2*q.head >= n {
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
	q.items = append(q.items, e)
	q.peak = max(q.peak, q.len())
}

// front is the oldest item, in place; the queue must not be empty.
func (q *queue[E]) front() *E { return &q.items[q.head] }

// pop removes the oldest item; the queue must not be empty.
func (q *queue[E]) pop() E {
	e := q.items[q.head]
	var zero E
	q.items[q.head] = zero // do not pin what the item refers to
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	if q.pops++; q.pops == queueWindow {
		q.endWindow()
	}
	return e
}

// endWindow closes a window of pops, applying the queue's one rule for
// its array.
func (q *queue[E]) endWindow() {
	high := max(q.peak, q.prevPeak)
	q.prevPeak, q.peak, q.pops = q.peak, q.len(), 0
	if keep := max(2*high, queueKeepMin); cap(q.items) > 4*keep {
		items := make([]E, q.len(), keep)
		copy(items, q.items[q.head:])
		q.items, q.head = items, 0
	}
}
