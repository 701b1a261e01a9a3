package fifo

import (
	"fmt"
	"math/rand"
	"testing"
)

// item carries a pointer so a slot that is not zeroed keeps it reachable.
type item struct {
	p *int
	v int
}

// check holds q to the plain-slice FIFO want: Len, the order and content
// of every entry through At, Front and Back, an empty queue's head at slot
// 0, and a zero item in every slot outside the live window.
func check(t *testing.T, where string, q *Queue[item], want []item) {
	t.Helper()
	if q.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", where, q.Len(), len(want))
	}
	if len(want) == 0 && q.head != 0 {
		t.Fatalf("%s: an empty queue's head is slot %d, not 0", where, q.head)
	}
	for i, w := range want {
		if got := *q.At(i); got != w {
			t.Fatalf("%s: At(%d) = %v, want %v", where, i, got, w)
		}
	}
	if len(want) > 0 {
		if got := *q.Front(); got != want[0] {
			t.Fatalf("%s: Front %v, want %v", where, got, want[0])
		}
		if got := *q.Back(); got != want[len(want)-1] {
			t.Fatalf("%s: Back %v, want %v", where, got, want[len(want)-1])
		}
	}
	live := make([]bool, len(q.buf))
	for i := range want {
		live[q.slot(i)] = true
	}
	for s, x := range q.buf {
		if !live[s] && x != (item{}) {
			t.Fatalf("%s: vacated slot %d holds %v", where, s, x)
		}
	}
}

// TestQueueMatchesSliceFIFO drives a Queue and a plain-slice FIFO with the
// same seeded Push/Pop/Remove/Reset tape, from zero and from a starting
// capacity that is not a power of two. Push-heavy stretches make the ring
// wrap and then grow while wrapped; Pop-heavy ones drain it.
func TestQueueMatchesSliceFIFO(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, start := range []int{0, 1, 10} {
			t.Run(fmt.Sprintf("seed-%d-cap-%d", seed, start), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				q := New[item](start)
				if q.Cap() != start {
					t.Fatalf("New(%d) has Cap %d", start, q.Cap())
				}
				var want []item
				next, wrappedGrowths := 0, 0
				pushShare := 50
				for step := 0; step < 20000; step++ {
					where := fmt.Sprint("step ", step)
					if step%500 == 0 {
						pushShare = 20 + rng.Intn(65)
					}
					switch op := rng.Intn(100); {
					case op == 0:
						capacity := q.Cap()
						q.Reset()
						want = want[:0]
						if q.Cap() != capacity {
							t.Fatalf("%s: Reset changed Cap %d -> %d", where, capacity, q.Cap())
						}
					case op <= pushShare || len(want) == 0:
						capacity, full, wrapped := q.Cap(), q.Len() == q.Cap(), q.head > 0
						x := item{p: new(int), v: next}
						next++
						q.Push(x)
						want = append(want, x)
						switch {
						case full && (q.Cap() <= capacity || capacity < 256 && q.Cap() < 2*capacity):
							t.Fatalf("%s: a full queue of %d grew to %d", where, capacity, q.Cap())
						case !full && q.Cap() != capacity:
							t.Fatalf("%s: Cap %d -> %d with %d of %d held", where, capacity, q.Cap(), len(want)-1, capacity)
						case full && wrapped:
							wrappedGrowths++
						}
					case op <= pushShare+5:
						i := rng.Intn(min(len(want), 4))
						if rng.Intn(4) == 0 {
							i = rng.Intn(len(want))
						}
						if got := q.Remove(i); got != want[i] {
							t.Fatalf("%s: Remove(%d) = %v, want %v", where, i, got, want[i])
						}
						want = append(want[:i:i], want[i+1:]...)
					default:
						if got := q.Pop(); got != want[0] {
							t.Fatalf("%s: Pop = %v, want %v", where, got, want[0])
						}
						want = want[1:]
					}
					check(t, where, &q, want)
				}
				if wrappedGrowths == 0 {
					t.Fatal("the tape never grew a wrapped ring")
				}
			})
		}
	}
}

// TestQueueResetZeroesWrappedWindow resets a queue whose live window wraps
// past the end of the ring: every slot, both segments included, is zero
// afterwards and the ring is kept.
func TestQueueResetZeroesWrappedWindow(t *testing.T) {
	q := New[item](8)
	for i := 0; i < 8; i++ {
		q.Push(item{p: new(int), v: i})
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	for i := 8; i < 12; i++ {
		q.Push(item{p: new(int), v: i})
	}
	if int(q.head)+q.Len() <= q.Cap() {
		t.Fatal("the live window does not wrap; the fixture no longer covers it")
	}
	q.Reset()
	check(t, "reset", &q, nil)
	if q.Cap() != 8 {
		t.Fatalf("Reset left Cap %d, want the ring of 8", q.Cap())
	}
	q.Push(item{v: 99})
	check(t, "push after reset", &q, []item{{v: 99}})
}

func TestQueuePanicsOutsideWindow(t *testing.T) {
	for name, f := range map[string]func(q *Queue[int]){
		"Pop":    func(q *Queue[int]) { q.Pop() },
		"Front":  func(q *Queue[int]) { q.Front() },
		"Back":   func(q *Queue[int]) { q.Back() },
		"At(-1)": func(q *Queue[int]) { q.At(-1) },
		"At(1)":  func(q *Queue[int]) { q.Push(7); q.At(1) },
		"Remove": func(q *Queue[int]) { q.Remove(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			q := New[int](4)
			f(&q)
		})
	}
}
