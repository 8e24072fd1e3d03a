package sim

// This file is the engine's specialized event queue: a hand-rolled 4-ary
// min-heap over queuedEvent values. It replaces container/heap, whose
// Push(x any)/Pop() any interface boxes every queuedEvent on the heap's hot
// path (one allocation per scheduled event) and whose binary layout costs one
// extra comparison level for every doubling of the queue. The 4-ary layout
// halves the tree depth, the concrete element type removes the boxing and the
// Less/Swap interface calls (and lets the compiler inline before into the
// sift loops), and the (time, secondary, seq) key is cached in the element so
// ordering never calls back into the Event interface.
//
// The total order is exactly the one the engine has always used — event time,
// then primary-before-secondary, then insertion sequence — so the dispatch
// schedule, and therefore the pinned replay digests, are bit-identical to the
// container/heap implementation (property-tested side by side in
// queue_test.go and fuzzed in FuzzEventQueueOrder).

// before reports whether a sorts strictly ahead of b in the engine's total
// dispatch order: (time, primary before secondary, insertion sequence).
func (a queuedEvent) before(b queuedEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.secondary != b.secondary {
		return !a.secondary
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of queued events. Children of node i live at
// 4i+1..4i+4; the parent of node i is (i-1)/4. The zero value is an empty,
// ready-to-use queue.
type eventQueue struct {
	items []queuedEvent
}

func (h *eventQueue) len() int { return len(h.items) }

// peek returns the minimum element without removing it. Undefined on an
// empty queue (callers check len first).
func (h *eventQueue) peek() queuedEvent { return h.items[0] }

// push inserts v, keeping the heap property.
//
//triosim:hotpath
func (h *eventQueue) push(v queuedEvent) {
	h.items = append(h.items, v) //triosim:nolint hotpath-alloc -- amortized: the heap's backing array doubles until the queue's high-water mark, then is reused
	h.siftUp(len(h.items) - 1)
}

// pop removes and returns the minimum element.
//
//triosim:hotpath
func (h *eventQueue) pop() queuedEvent {
	root := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = queuedEvent{} // release the event held by the vacated slot
	h.items = h.items[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return root
}

// siftUp restores the heap property upward from slot i.
//
//triosim:hotpath
func (h *eventQueue) siftUp(i int) {
	items := h.items
	for i > 0 {
		p := (i - 1) / 4
		if !items[i].before(items[p]) {
			return
		}
		items[i], items[p] = items[p], items[i]
		i = p
	}
}

// siftDown restores the heap property downward from slot i.
//
//triosim:hotpath
func (h *eventQueue) siftDown(i int) {
	items := h.items
	n := len(items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if items[c].before(items[min]) {
				min = c
			}
		}
		if !items[min].before(items[i]) {
			return
		}
		items[i], items[min] = items[min], items[i]
		i = min
	}
}
