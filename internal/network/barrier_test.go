package network

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The epoch barrier's hand-off (epochPool) is a hand-written spin-then-park
// barrier, so these tests hold what the channel pool got from the runtime:
// no lost wake-up, no advance published half-written, no coordinator past
// an advance a helper is still in, progress on one P, and a pool that is
// gone when Run returns. All run in -short; `make race` runs them raced at
// GOMAXPROCS 1 and 2 on top of the runner's own count.

// cityStormFixture is the pooled-advance stress: at a 100 ms dwell nearly
// nine in ten of its 1 000 barriers go through the pool (4.2 shards due
// on average, 1 718 handovers).
func cityStormFixture() Config {
	return Config{Cells: 16, UEs: 64, Duration: 10 * time.Second, Seed: 5, MeanDwell: 100 * time.Millisecond}
}

// cityStaticFixture has no mobility: no barrier but the last has a shard
// due, and the last has all of them.
func cityStaticFixture() Config {
	return Config{Cells: 16, UEs: 64, Duration: 500 * time.Millisecond, Seed: 9}
}

// failAfter turns a barrier that never completes — a lost wake-up, a
// generation counted wrong, a waiter that does not yield — into a failure
// with every goroutine's stack instead of a hang until go test's timeout.
func failAfter(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: barrier not through after %v\n%s", t.Name(), d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}

// onOneP runs the rest of the test on a single P, where a waiter that
// spins without yielding never lets the goroutine it waits for run.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestEpochBarrierHandoverStorm(t *testing.T) {
	t.Run("workers-2-3-8", func(t *testing.T) {
		failAfter(t, 2*time.Minute)
		identicalAcrossWorkers(t, cityStormFixture(), 2, 3, 8)
	})
	t.Run("one-P-workers-4", func(t *testing.T) {
		failAfter(t, 2*time.Minute)
		onOneP(t)
		identicalAcrossWorkers(t, cityStormFixture(), 4)
	})
}

// TestEpochBarrierParkAndWake drives a static city by hand so that every
// helper provably outlasts parkAfterYields and parks before the final,
// all-shards advance has to wake it; then it keeps publishing advances
// (over shards already at the barrier: pure hand-off) the moment the first
// helper is seen parked, while the others are within a few yields of
// deciding to — the window in which a wake-up can be lost.
func TestEpochBarrierParkAndWake(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		oneP    bool
	}{{"workers-2", 2, false}, {"workers-3", 3, false}, {"workers-8", 8, false}, {"one-P-workers-4", 4, true}} {
		t.Run(tc.name, func(t *testing.T) {
			failAfter(t, 2*time.Minute)
			if tc.oneP {
				onOneP(t)
			}
			cfg := cityStaticFixture()
			cfg.Workers = 1
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			cfg.Workers = tc.workers
			n, err := newCity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			awaitParked := func(want int) {
				for parked := 0; parked < want; runtime.Gosched() {
					n.pool.mu.Lock()
					parked = n.pool.parked
					n.pool.mu.Unlock()
				}
			}
			var now time.Duration
			for now+epoch < cfg.Duration {
				now = n.step(now)
			}
			if n.pooled != 0 {
				t.Fatalf("%d pooled advances before the last barrier of a static city", n.pooled)
			}
			awaitParked(tc.workers - 1)
			now = n.step(now)
			if now != cfg.Duration || n.pooled != 1 {
				t.Fatalf("last step ended at %v after %d pooled advances, want %v after 1", now, n.pooled, cfg.Duration)
			}
			for round := 0; round < 20; round++ {
				awaitParked(1)
				n.pool.run(now)
			}
			n.pool.stop()
			if got, want := n.finalize().Fingerprint(), ref.Fingerprint(); got != want {
				t.Errorf("workers=%d: parked-and-woken run diverged from workers=1:\n--- want ---\n%s\n--- got ---\n%s", tc.workers, want, got)
			}
		})
	}
}

// TestEpochBarrierWakeCannotSlipPastThePark stages the one interleaving in
// which a wake-up can be lost — an advance published after a helper's last
// look at gen and before it blocks — instead of waiting for the scheduler to
// produce it. On one P, with the test holding the pool's mutex: the
// coordinator goroutine resets the advance and queues on the mutex to bump
// gen; every helper then runs out of yields and queues behind it, past its
// unlocked look. Released, the coordinator bumps and broadcasts to nobody
// before any helper gets the P; a helper that blocks without looking at gen
// again now sleeps through the advance, and the advance never completes.
func TestEpochBarrierWakeCannotSlipPastThePark(t *testing.T) {
	failAfter(t, time.Minute)
	onOneP(t)
	cfg := cityStaticFixture()
	cfg.Workers = 4
	n, err := newCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.pool.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.pool.run(0)
	}()
	// Each yield hands the P to the coordinator goroutine (once: it blocks)
	// and to every helper still spinning; past parkAfterYields none is.
	for i := 0; i < 2*parkAfterYields; i++ {
		runtime.Gosched()
	}
	n.pool.mu.Unlock()
	<-done
	n.pool.stop()
}

// TestEpochBarrierSequentialStartsNoGoroutine: Workers 1, and a one-shard
// city at any Workers, build no pool — the sequential workloads never
// execute the hand-off.
func TestEpochBarrierSequentialStartsNoGoroutine(t *testing.T) {
	for _, cfg := range []Config{
		{Cells: 16, UEs: 64, Duration: 200 * time.Millisecond, Seed: 1, MeanDwell: 100 * time.Millisecond, Workers: 1},
		{Cells: 1, UEs: 4, Duration: 200 * time.Millisecond, Seed: 1, Workers: 4},
	} {
		before := runtime.NumGoroutine()
		n, err := newCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n.pool != nil {
			t.Errorf("%d cells at Workers %d built a pool", cfg.Cells, cfg.Workers)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d cells at Workers %d: %d goroutines after newCity, %d before", cfg.Cells, cfg.Workers, after, before)
		}
	}
}

// TestRunLeavesNoHelpersBehind: the pool is joined, not just told to quit,
// when Run returns — a caller running cities in a loop must not overlap a
// dying pool's yielding helpers with the next city's. On one P the check is
// exact (a helper's exit is the next thing it does after counting itself
// out, and nothing else can run in between); on the runner's own P count a
// helper may be between its last decrement and the scheduler, so the count
// gets a moment to settle.
func TestRunLeavesNoHelpersBehind(t *testing.T) {
	cfg := Config{Cells: 4, UEs: 8, Duration: 200 * time.Millisecond, Seed: 2, MeanDwell: 50 * time.Millisecond, Workers: 4}
	for _, oneP := range []bool{true, false} {
		t.Run(fmt.Sprintf("one-P-%v", oneP), func(t *testing.T) {
			failAfter(t, 2*time.Minute)
			if oneP {
				onOneP(t)
			}
			base := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				alive := runtime.NumGoroutine()
				for settle := time.Now(); !oneP && alive > base && time.Since(settle) < time.Second; alive = runtime.NumGoroutine() {
					runtime.Gosched()
				}
				if alive > base {
					t.Fatalf("city %d: %d goroutines alive when Run returned, %d before the first", i, alive, base)
				}
			}
		})
	}
}
