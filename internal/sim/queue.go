package sim

// event is a single scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

// before reports whether e fires strictly before o: earlier timestamp,
// or FIFO (seq) order at the same instant.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap ordered by (at, seq), stored directly
// in a []event. It is the storage half of the engine split: Engine owns
// the clock and scheduling discipline, eventQueue owns the ordered
// store.
//
// Compared to the earlier container/heap implementation this removes
// the interface{} boxing on every Push/Pop (one heap-escaping
// allocation per scheduled event, millions per run) and halves the
// tree depth, trading it for a 4-way sibling scan that stays within
// one cache line of events. Popped slots are explicitly cleared so the
// closure in a fired event does not stay reachable through the backing
// array (the old eventHeap.Pop leaked exactly that way: `*h =
// old[:n-1]` kept old[n-1].fn pinned until the slot was overwritten by
// a later push).
type eventQueue struct {
	events []event // 4-ary min-heap on (at, seq)
}

// len reports the number of queued events.
func (q *eventQueue) len() int { return len(q.events) }

// push inserts ev and restores the heap property.
func (q *eventQueue) push(ev event) {
	q.events = append(q.events, ev)
	q.siftUp(len(q.events) - 1)
}

// peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *eventQueue) peek() *event { return &q.events[0] }

// pop removes and returns the earliest event, clearing the vacated
// slot so the event's closure is not pinned by the backing array. It
// must not be called on an empty queue.
func (q *eventQueue) pop() event {
	ev := q.events[0]
	n := len(q.events) - 1
	q.events[0] = q.events[n]
	q.events[n] = event{} // unpin the moved event's closure
	q.events = q.events[:n]
	if n > 1 {
		q.siftDown()
	}
	return ev
}

// siftUp restores the heap property from leaf i toward the root.
func (q *eventQueue) siftUp(i int) {
	ev := q.events[i]
	for i > 0 {
		p := (i - 1) / 4
		if q.events[p].before(&ev) {
			break
		}
		q.events[i] = q.events[p]
		i = p
	}
	q.events[i] = ev
}

// siftDown restores the heap property from the root toward the leaves.
func (q *eventQueue) siftDown() {
	n := len(q.events)
	ev := q.events[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for s := c + 1; s < end; s++ {
			if q.events[s].before(&q.events[min]) {
				min = s
			}
		}
		if ev.before(&q.events[min]) {
			break
		}
		q.events[i] = q.events[min]
		i = min
	}
	q.events[i] = ev
}
