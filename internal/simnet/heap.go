package simnet

import "container/heap"

// eventQueue is the scheduler's priority-queue seam: implementations must
// pop events in exactly the total order (at, ord). Sim selects one at
// construction (NewWithQueue); the calendar/timing-wheel queue is the
// default and the binary heap is kept as the reference implementation the
// differential property tests compare it against.
type eventQueue interface {
	push(e *event)
	pop() *event // nil when empty
	// popLE pops the earliest event only if its time is <= until (nil
	// otherwise): the run loop's fused peek-and-pop, one probe per event.
	popLE(until Time) *event
	len() int
	forEach(fn func(*event))
	reset() // drop every event, keeping capacity for reuse
}

// eventHeap is a min-heap over (at, ord) — the reference queue.
type eventHeap []*event

func (q eventHeap) Len() int { return len(q) }
func (q eventHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].ord < q[j].ord
}
func (q eventHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventHeap) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// heapQueue adapts eventHeap to the eventQueue seam.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(e *event) { heap.Push(&q.h, e) }

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) popLE(until Time) *event {
	if len(q.h) == 0 || q.h[0].at > until {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) forEach(fn func(*event)) {
	for _, e := range q.h {
		fn(e)
	}
}

func (q *heapQueue) reset() {
	for i := range q.h {
		q.h[i] = nil
	}
	q.h = q.h[:0]
}
