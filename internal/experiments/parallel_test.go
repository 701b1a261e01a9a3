package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"poi360/internal/lte"
	"poi360/internal/session"
)

// parallelBase is a representative cellular batch config for engine tests.
func parallelBase() session.Config {
	return session.Config{
		Network: session.Cellular,
		Cell:    lte.ProfileCampus,
		Scheme:  session.SchemeAdaptive,
		RC:      session.RCGCC,
	}
}

// TestWorkersDefault: Workers=0 means GOMAXPROCS, explicit values win.
func TestWorkersDefault(t *testing.T) {
	if got, want := (Options{}).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
	if got := (Options{Workers: 3}).workers(); got != 3 {
		t.Fatalf("explicit workers = %d, want 3", got)
	}
}

// TestParallelEqualsSequential is the engine's core guarantee: for a fixed
// seed, the parallel worker pool folds the session grid into an aggregate
// deeply identical to the sequential path's.
func TestParallelEqualsSequential(t *testing.T) {
	o := Options{Quick: true, Users: 3, Repeats: 2, SessionTime: 30 * time.Second, Seed: 11, Workers: 1}
	seq, err := runBatch(o, parallelBase())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		o.Workers = workers
		par, err := runBatch(o, parallelBase())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("Workers=%d aggregate differs from sequential", workers)
		}
	}
}

// TestParallelReportBytesIdentical renders a full experiment report with
// Workers=1 and Workers=8 and requires byte-identical tables — the
// figure-regeneration contract the CLI exposes.
func TestParallelReportBytesIdentical(t *testing.T) {
	render := func(workers int) string {
		o := Options{Quick: true, Users: 2, Repeats: 2, SessionTime: 30 * time.Second, Seed: 4, Workers: workers}
		rep, err := Fig17ab.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range rep.Tables {
			sb.WriteString(tab.String())
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("report bytes differ between Workers=1 and Workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "%") {
		t.Fatalf("report suspiciously empty:\n%s", seq)
	}
}

// TestCrossBatchShardingEqualsSequential pins the cross-batch worker pool:
// running several heterogeneous batches through one flattened runBatches
// pool must produce, at any worker count, exactly the aggregates that
// separate sequential runBatch calls produce, in input order.
func TestCrossBatchShardingEqualsSequential(t *testing.T) {
	bases := []session.Config{
		{Network: session.Cellular, Cell: lte.ProfileCampus, Scheme: session.SchemeAdaptive, RC: session.RCGCC},
		{Network: session.Cellular, Cell: lte.ProfileBusy, Scheme: session.SchemeAdaptive, RC: session.RCFBCC},
		{Network: session.Cellular, Cell: lte.ProfileCampus, Scheme: session.SchemeAdaptive, RC: session.RCFBCC},
	}
	o := Options{Quick: true, Users: 2, Repeats: 2, SessionTime: 30 * time.Second, Seed: 17, Workers: 1}
	want := make([]*sessionAgg, len(bases))
	for i, base := range bases {
		agg, err := runBatch(o, base)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = agg
	}
	for _, workers := range []int{1, 3, 8} {
		o.Workers = workers
		got, err := runBatches(o, bases)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Workers=%d: got %d aggregates, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("Workers=%d: batch %d aggregate differs from its sequential runBatch", workers, i)
			}
		}
	}
}

// TestProgressOrderedUnderParallelWorkers: the -v per-session lines must
// come out in (user, repeat) order and byte-identical to a sequential run,
// no matter how the workers interleave.
func TestProgressOrderedUnderParallelWorkers(t *testing.T) {
	capture := func(workers int) string {
		var buf bytes.Buffer
		o := Options{Quick: true, Users: 3, Repeats: 2, SessionTime: 30 * time.Second, Seed: 9,
			Workers: workers, Progress: &buf}
		if _, err := runBatch(o, parallelBase()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := capture(1), capture(8)
	if seq != par {
		t.Fatalf("progress output differs under parallel workers:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	lines := strings.Split(strings.TrimRight(seq, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 progress lines, got %d:\n%s", len(lines), seq)
	}
	for i, line := range lines {
		wantRep := fmt.Sprintf("rep=%d:", i%2)
		if !strings.Contains(line, wantRep) {
			t.Fatalf("line %d out of order (%q lacks %q)", i, line, wantRep)
		}
	}
}

// TestProgressBufferReorders exercises the reordering buffer directly:
// lines arriving out of order flush in index order, each as soon as its
// contiguous prefix completes.
func TestProgressBufferReorders(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressBuffer(&buf)
	p.emit(2, "two\n")
	p.emit(1, "one\n")
	if buf.Len() != 0 {
		t.Fatalf("flushed before the prefix was complete: %q", buf.String())
	}
	p.emit(0, "zero\n")
	if got, want := buf.String(), "zero\none\ntwo\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	p.emit(3, "three\n")
	if got, want := buf.String(), "zero\none\ntwo\nthree\n"; got != want {
		t.Fatalf("liveness: got %q, want %q", got, want)
	}
	// nil buffer (no -v) is a no-op, including from workers.
	var nilBuf *progressBuffer
	nilBuf.emit(0, "dropped")
}

// TestRunBatchErrorDeterministic: a failing config must surface the same
// (lowest-index) error from the pool as from the sequential path.
func TestRunBatchErrorDeterministic(t *testing.T) {
	bad := parallelBase()
	bad.Scheme = session.SchemeFixed // FixedC unset → every session invalid
	for _, workers := range []int{1, 4} {
		o := Options{Quick: true, Users: 2, Repeats: 2, SessionTime: 20 * time.Second, Workers: workers}
		_, err := runBatch(o, bad)
		if err == nil {
			t.Fatalf("Workers=%d: expected error", workers)
		}
		if !strings.Contains(err.Error(), "user=0, repeat=0") {
			t.Fatalf("Workers=%d: error should come from the first grid cell, got %v", workers, err)
		}
	}
}

// TestDeriveSeedMatchesSessionGrid guards the wiring: runBatch must seed
// grid cell (u, r) with exactly session.DeriveSeed(o.Seed, u, r), keeping
// external tools (poi360-sim -runs) reproducible against batch sessions.
func TestDeriveSeedMatchesSessionGrid(t *testing.T) {
	seen := map[int64]bool{}
	for u := 0; u < 5; u++ {
		for r := 0; r < 4; r++ {
			s := session.DeriveSeed(77, u, r)
			if seen[s] {
				t.Fatalf("duplicate seed in 5×4 grid at (u=%d,r=%d)", u, r)
			}
			seen[s] = true
		}
	}
}

// BenchmarkRunBatchWorkers measures the parallel engine's scaling on a
// multi-session batch: on an N-core machine the workers=GOMAXPROCS case
// should approach N× the workers=1 throughput (sessions are independent
// CPU-bound simulations with no shared state).
func BenchmarkRunBatchWorkers(b *testing.B) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := Options{Quick: true, Users: 5, Repeats: 2, SessionTime: 30 * time.Second, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Seed = int64(i) // defeat any caching, vary the work
				if _, err := runBatch(o, parallelBase()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMultiUserBytesIdentical extends the engine invariant to shared-cell
// scenarios: the multiuser table renders byte-identically at any worker
// count, because each scenario is an independent N-user simulation whose
// randomness derives only from its grid seed, folded back in grid order.
func TestMultiUserBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user grid is heavy")
	}
	render := func(workers int) string {
		o := Options{Quick: true, Repeats: 1, SessionTime: 20 * time.Second, Seed: 9, Workers: workers}
		rep, err := MultiUser.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range rep.Tables {
			sb.WriteString(tab.String())
		}
		return sb.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("multiuser report differs between Workers=1 and Workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "Jain") {
		t.Fatalf("multiuser report missing fairness column:\n%s", seq)
	}
}

// TestMultiUserMeasured sanity-checks the contention physics the table
// reports: fairness indices are valid, and an 8-user cell leaves each
// controller less throughput than a 2-user cell.
func TestMultiUserMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-user grid is heavy")
	}
	o := Options{Quick: true, Repeats: 1, SessionTime: 30 * time.Second, Seed: 5}
	rep, err := MultiUser.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		for _, mix := range []string{"fbcc", "gcc", "half"} {
			key := fmt.Sprintf("n%d/%s_jain", n, mix)
			j, ok := rep.Measured[key]
			if !ok {
				t.Fatalf("missing %s", key)
			}
			if j <= 0 || j > 1+1e-9 {
				t.Fatalf("%s = %g out of (0,1]", key, j)
			}
		}
	}
	if rep.Measured["n8/fbcc_fbcc_thrpt"] >= rep.Measured["n2/fbcc_fbcc_thrpt"] {
		t.Fatalf("8-user FBCC share %.0f not below 2-user %.0f",
			rep.Measured["n8/fbcc_fbcc_thrpt"], rep.Measured["n2/fbcc_fbcc_thrpt"])
	}
	if rep.Measured["n8/gcc_gcc_thrpt"] >= rep.Measured["n2/gcc_gcc_thrpt"] {
		t.Fatalf("8-user GCC share %.0f not below 2-user %.0f",
			rep.Measured["n8/gcc_gcc_thrpt"], rep.Measured["n2/gcc_gcc_thrpt"])
	}
}

// runBatch runs the users × repeats session grid derived from base (Seed
// and User varied per cell) and aggregates the results. It is runBatches
// with a single batch; see there for the engine guarantees.
func runBatch(o Options, base session.Config) (*sessionAgg, error) {
	aggs, err := runBatches(o, []session.Config{base})
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}
