package network

import (
	"testing"
	"time"

	"poi360/internal/lte"
)

// TestCityRowReuse steps the churn city barrier by barrier at Workers 1, 2
// and 4 — the coordinator hands freed modem rows to new residencies between
// pooled advances — and holds every cell to the bound row reuse promises:
// no more modem rows (distinct lte.UE handles, each a row) than its peak
// concurrent population. The peak is replayed from the fold's order, UE by
// UE, because a barrier may attach a UE to a cell before it detaches
// another from it. Most handovers must reuse a row, and every Workers value
// must give the Workers 1 fingerprint. Runs in -short: `make race` races
// it at GOMAXPROCS=2.
func TestCityRowReuse(t *testing.T) {
	cfg := cityChurnFixture()
	var want string
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		n, err := newCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]map[*lte.UE]bool, cfg.Cells)
		for c := range rows {
			rows[c] = map[*lte.UE]bool{}
		}
		pop := make([]int, cfg.Cells)
		peak := make([]int, cfg.Cells)
		prev := make([]int, cfg.UEs)
		for i := range prev {
			prev[i] = -1
		}
		// observe replays the barrier's detaches and attaches in UE-id
		// order, the fold's, and collects the rows of the residencies.
		observe := func() {
			for i, u := range n.ues {
				serving := -1 // in a handover outage
				if u.link != nil {
					serving = u.cell
				}
				switch from, to := prev[i], serving; {
				case from >= 0 && to < 0:
					pop[from]--
				case from < 0 && to >= 0:
					pop[to]++
					peak[to] = max(peak[to], pop[to])
				}
				prev[i] = serving
				if serving >= 0 {
					rows[serving][u.link] = true
				}
			}
		}
		observe()
		for now := time.Duration(0); now < cfg.Duration; {
			now = n.step(now)
			observe()
		}
		if n.pool != nil {
			n.pool.stop()
		}
		res := n.finalize()

		total := 0
		for c := range rows {
			if len(rows[c]) > peak[c] {
				t.Errorf("workers=%d: cell %d holds %d rows, its peak population is %d", workers, c, len(rows[c]), peak[c])
			}
			total += len(rows[c])
		}
		residencies := cfg.UEs + res.Handovers
		t.Logf("workers=%d: %d rows for %d residencies", workers, total, residencies)
		if res.Handovers < 300 || total > residencies/4 {
			t.Errorf("workers=%d: %d rows for %d residencies (%d handovers); want most handovers in a reused row", workers, total, residencies, res.Handovers)
		}
		if fp := res.Fingerprint(); workers == 1 {
			want = fp
		} else if fp != want {
			t.Errorf("workers=%d: fingerprint diverged from workers=1:\n--- want ---\n%s\n--- got ---\n%s", workers, want, fp)
		}
	}
}
