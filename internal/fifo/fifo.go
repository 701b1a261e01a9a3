// Package fifo holds the simulator's one first-in-first-out queue.
package fifo

// Queue is a FIFO on a ring of slots. It grows only when full, at least
// as append grows a full slice (see Push), and never compacts, so a queue
// stops allocating once it has held its largest backlog. Every slot it
// vacates is zeroed, so nothing popped or reset stays reachable through
// it. The zero Queue is empty and ready.
type Queue[T any] struct {
	buf []T
	// head is the slot of the oldest entry and n the entries held, 32-bit
	// so that a Queue is no larger than the slice and index it replaces.
	head, n int32
}

// New returns an empty queue with room for capacity entries.
func New[T any](capacity int) Queue[T] { return Queue[T]{buf: make([]T, capacity)} }

// Len reports the number of entries held.
func (q *Queue[T]) Len() int { return int(q.n) }

// Cap reports the number of entries the queue holds before it grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// slot is the ring slot of entry i (0 = oldest), wrapped by comparison.
func (q *Queue[T]) slot(i int) int {
	if i += int(q.head); i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Push appends v at the back. A full queue grows in the same step: its
// entries are buf[head:] then buf[:head], so appending a copy of
// buf[:head] and then v makes them one run from head, and the stale
// copies left in buf[:head] are zeroed. That is append's growth of a full
// slice (twice its size below 256 slots, about a quarter more above, the
// whole block the allocator rounds the request up to) by head+1 entries
// instead of 1, the same below 256 slots and never less. The growth is
// inline rather than a call because a call alone costs 57 of the
// inliner's budget of 80, and Push is on every enqueue of every queue
// (scripts/inline_must.txt).
func (q *Queue[T]) Push(v T) {
	n := int(q.n)
	if n == len(q.buf) {
		if n > 1<<29 {
			panic("fifo: queue outgrew its 32-bit indices")
		}
		buf := append(append(q.buf, q.buf[:q.head]...), v)
		clear(buf[:q.head])
		q.buf = buf[:cap(buf)]
	} else {
		if n += int(q.head); n >= len(q.buf) {
			n -= len(q.buf)
		}
		q.buf[n] = v
	}
	q.n++
}

// Pop removes and returns the front entry. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop of an empty queue")
	}
	v := q.buf[q.head]
	q.buf[q.head] = *new(T)
	q.n--
	// An emptied queue restarts at slot 0, whose cache lines are warm.
	if q.head++; q.n == 0 || int(q.head) == len(q.buf) {
		q.head = 0
	}
	return v
}

// Remove deletes and returns the i-th oldest entry, keeping the order of
// the rest: the i entries in front of it each move back one slot.
func (q *Queue[T]) Remove(i int) T {
	v := *q.At(i)
	for ; i > 0; i-- {
		*q.At(i) = *q.At(i - 1)
	}
	q.Pop()
	return v
}

// At returns the i-th oldest entry in place, valid until the next Push,
// Pop or Remove. It panics unless 0 <= i < Len().
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("fifo: index out of range")
	}
	return &q.buf[q.slot(i)]
}

// Front returns the oldest entry in place, as At(0).
func (q *Queue[T]) Front() *T { return q.At(0) }

// Back returns the newest entry in place, as At(Len()-1).
func (q *Queue[T]) Back() *T { return q.At(int(q.n) - 1) }

// Reset empties the queue, zeroing every slot and keeping the ring.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
