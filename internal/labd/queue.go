package labd

import "sync"

// fifo is an unbounded first-in-first-out queue of run IDs with
// blocking pop and close semantics. Enqueue order is service order:
// the fleet goroutines pop strictly in push order (what makes the
// daemon's scheduling observable and testable), and Close wakes every
// blocked popper so a draining daemon's fleets exit cleanly while
// still-queued runs stay durably "queued" in the store for the next
// process to run.
type fifo struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []string
	closed bool
}

func newFIFO() *fifo {
	q := &fifo{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an ID. Pushing to a closed queue is a no-op: the run is
// already durable in the store, and the next daemon re-enqueues it.
func (q *fifo) Push(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, id)
	q.cond.Signal()
}

// Pop blocks until an ID is available or the queue is closed; the
// second return is false once the queue is closed and drained of
// nothing — closed queues stop handing out work immediately even if
// items remain, because a draining daemon must not start new runs.
func (q *fifo) Pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return "", false
	}
	id := q.items[0]
	q.items = q.items[1:]
	return id, true
}

// Close stops the queue: blocked and future Pops return false.
func (q *fifo) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Len reports how many IDs are waiting.
func (q *fifo) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
