// Allocation-budget gates and benchmarks for the hot path. The budgets encode the zero-alloc-hot-path architecture of
// DESIGN.md §13: memoized Eq. 1 matrices, the simclock event arena, and
// per-session scratch buffers. A regression that reintroduces per-frame or
// per-event allocation trips these gates in CI long before it shows up as
// wall-clock time.
package poi360

import (
	"testing"
	"time"
)

// sessionAllocBudget bounds the allocations of one full 30-second FBCC
// session on the busy cell. The pre-optimization baseline was 63,447
// allocs per session; the arena/cache work brought it to ~6.3k. The gate
// sits at 2× the optimized level — loose enough to absorb Go-version
// noise, tight enough that reverting any one of the big wins (event arena,
// matrix cache, packetize scratch, LTE/pacer ring queues) blows through
// it.
const sessionAllocBudget = 13000

func perfSessionConfig() SessionConfig {
	return SessionConfig{
		Duration: 30 * time.Second,
		Network:  Cellular,
		Cell:     CellBusy,
		Scheme:   SchemeAdaptive,
		RC:       RCFBCC,
		Seed:     1,
	}
}

// TestPerfSessionAllocBudget is the CI allocation gate on the end-to-end
// hot path: capture → Eq. 1 matrix → encode → packetize → pace → LTE serve
// → reassemble → metrics, 30 simulated seconds.
func TestPerfSessionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs full sessions")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunSession(perfSessionConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > sessionAllocBudget {
		t.Fatalf("session allocations = %.0f, budget %d (hot-path regression; see DESIGN.md §13)",
			allocs, sessionAllocBudget)
	}
	t.Logf("session allocations: %.0f (budget %d, pre-optimization baseline 63447)",
		allocs, sessionAllocBudget)
}

// BenchmarkSessionAllocs is the benchmark the gate above is derived from:
// one full busy-cell FBCC session per iteration, -benchmem reporting the
// allocation count the EXPERIMENTS.md perf table tracks.
func BenchmarkSessionAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSession(perfSessionConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
