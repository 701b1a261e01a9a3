package simclock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWallOrderAndNow checks that events fire in deadline order on the Run
// goroutine and observe a non-decreasing Now at or past their deadline.
func TestWallOrderAndNow(t *testing.T) {
	w := NewWall()
	var mu sync.Mutex
	var got []int
	base := w.Now()
	w.Schedule(base+30*time.Millisecond, func() {
		mu.Lock()
		got = append(got, 3)
		mu.Unlock()
	})
	w.Schedule(base+10*time.Millisecond, func() {
		if w.Now() < base+10*time.Millisecond {
			t.Errorf("callback ran at %v, before its deadline", w.Now())
		}
		mu.Lock()
		got = append(got, 1)
		mu.Unlock()
	})
	w.Schedule(base+20*time.Millisecond, func() {
		mu.Lock()
		got = append(got, 2)
		mu.Unlock()
	})
	w.Run(base + 60*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}

// TestWallConcurrentSchedule hammers the scheduling API from several
// goroutines while Run executes — the socket-reader injection pattern the
// real-transport backend uses. Run under -race this is the backend's
// thread-safety contract.
func TestWallConcurrentSchedule(t *testing.T) {
	w := NewWall()
	const producers, perProducer = 4, 50
	var fired atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				w.ScheduleAfter(time.Duration(i%7)*time.Millisecond, func() {
					fired.Add(1)
				})
				time.Sleep(200 * time.Microsecond)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Run long enough for every producer to finish plus the max delay.
	w.Run(w.Now() + 500*time.Millisecond)
	<-done
	if got := fired.Load(); got != producers*perProducer {
		t.Fatalf("fired %d of %d scheduled events", got, producers*perProducer)
	}
}

// TestWallTicker checks cadence and stop semantics.
func TestWallTicker(t *testing.T) {
	w := NewWall()
	var ticks atomic.Int64
	stop := w.Ticker(10*time.Millisecond, func() { ticks.Add(1) })
	w.Run(w.Now() + 55*time.Millisecond)
	n := ticks.Load()
	if n < 3 || n > 6 {
		t.Fatalf("got %d ticks in ~55 ms of a 10 ms ticker", n)
	}
	stop()
	w.Run(w.Now() + 30*time.Millisecond)
	if ticks.Load() != n {
		t.Fatalf("ticker fired after stop: %d -> %d", n, ticks.Load())
	}
}

// TestWallTickAllocFree holds the live scheduler's steady state to no
// allocation per tick: the ticker re-arms through SchedulePayload with a
// static callback (a method value would escape on every re-arm) and Run
// sleeps on one reused timer instead of a new one per sleep.
func TestWallTickAllocFree(t *testing.T) {
	w := NewWall()
	ticks := 0
	stop := w.Ticker(time.Millisecond, func() { ticks++ })
	defer stop()
	w.Run(w.Now() + 20*time.Millisecond) // warm-up: slab, heap, timer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := ticks
	w.Run(w.Now() + 100*time.Millisecond)
	runtime.ReadMemStats(&after)
	n := ticks - warm
	if n < 20 {
		t.Fatalf("only %d ticks of a 1 ms ticker in 100 ms", n)
	}
	perTick := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%d ticks, %.3f allocations per tick", n, perTick)
	if perTick >= 0.1 {
		t.Fatalf("%.3f allocations per tick over %d ticks, want < 0.1", perTick, n)
	}
}

// Pending reports the number of scheduled events not yet fired.
func (w *Wall) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.heap)
}

// TestWallStop verifies Stop interrupts a sleeping Run promptly.
func TestWallStop(t *testing.T) {
	w := NewWall()
	w.ScheduleAfter(10*time.Second, func() {})
	done := make(chan struct{})
	go func() {
		w.Run(w.Now() + 10*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	w.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if w.Pending() != 1 {
		t.Fatalf("pending = %d after Stop, want the 1 unfired event kept", w.Pending())
	}
}

// TestWallPayloadAndCode covers the closure-free scheduling paths on the
// wall backend.
func TestWallPayloadAndCode(t *testing.T) {
	w := NewWall()
	var sum atomic.Int64
	code := w.NewCode(func(a any) { sum.Add(a.(int64)) })
	w.ScheduleCode(w.Now()+time.Millisecond, code, int64(5))
	w.SchedulePayload(w.Now()+2*time.Millisecond, func(a any) { sum.Add(a.(int64)) }, int64(7))
	w.Run(w.Now() + 30*time.Millisecond)
	if sum.Load() != 12 {
		t.Fatalf("sum = %d, want 12", sum.Load())
	}
}

// TestWallSatisfiesScheduler pins the backend swap at the type level and
// exercises a consumer written against the interface on both backends.
func TestWallSatisfiesScheduler(t *testing.T) {
	run := func(s Scheduler, advance func()) int {
		n := 0
		s.ScheduleAfter(time.Millisecond, func() { n++ })
		s.ScheduleAfter(2*time.Millisecond, func() { n++ })
		advance()
		return n
	}
	c := New()
	if got := run(c, func() { c.Run(10 * time.Millisecond) }); got != 2 {
		t.Fatalf("sim backend fired %d of 2", got)
	}
	w := NewWall()
	if got := run(w, func() { w.Run(w.Now() + 20*time.Millisecond) }); got != 2 {
		t.Fatalf("wall backend fired %d of 2", got)
	}
}
