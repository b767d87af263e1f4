package core

// This file is the serial lane's ordering: a binary heap over the lane
// queue's own []laneItem, highest priority first and arrival order among
// equals. That realizes the Prioritary transmission semantics of §3.1.2
// — "the delivery of obvents can be delayed to defer to obvents with a
// higher priority" — at the receiving process, where backlog actually
// forms, and because ordered envelopes share priority 0 it is also the
// arrival order the global ordered semantics (Causal/Total) need. The
// sift functions are written over the concrete slice: the standard
// library's heap takes each item as an `any`, one allocation per envelope.

// laneBefore reports whether a leaves a priority-ordered lane before b:
// descending priority, then ascending arrival.
func laneBefore(a, b *laneItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// heapUp restores the heap invariant after h[i] was appended or moved
// into place from below.
func heapUp(h []laneItem, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !laneBefore(&h[i], &h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// heapDown sinks h[i] to its place and reports whether it moved.
func heapDown(h []laneItem, i int) bool {
	start := i
	for {
		first := 2*i + 1
		if first >= len(h) {
			break
		}
		if right := first + 1; right < len(h) && laneBefore(&h[right], &h[first]) {
			first = right
		}
		if !laneBefore(&h[first], &h[i]) {
			break
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
	return i > start
}

// heapRemove takes h[i] out of the heap and returns the shortened heap
// with it. i == 0 is the pop; DropOldest removes from the middle.
func heapRemove(h []laneItem, i int) ([]laneItem, laneItem) {
	last := len(h) - 1
	item := h[i]
	h[i] = h[last]
	h[last] = laneItem{} // drop the envelope reference for the GC
	h = h[:last]
	if i < last && !heapDown(h, i) {
		heapUp(h, i)
	}
	return h, item
}
