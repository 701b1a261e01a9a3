package network

import (
	"testing"
	"time"
)

// TestCityStaticShardsRunOnlyAtTheEnd checks the rule is in force, which
// no identity test can (lockstep is also exact): in a static, untelemetered
// city no barrier but the last touches any shard, so no clock moves until
// then — and at the last one every populated shard arrives.
func TestCityStaticShardsRunOnlyAtTheEnd(t *testing.T) {
	for _, workers := range []int{1, 3} {
		n, err := newCity(Config{Cells: 9, UEs: 12, Duration: 95 * time.Millisecond, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if n.pool != nil {
			t.Cleanup(n.pool.stop)
		}
		var now time.Duration
		for barrier := 1; now < n.cfg.Duration; barrier++ {
			now = n.step(now)
			for c, sh := range n.shards {
				want := time.Duration(0)
				if now == n.cfg.Duration && len(sh.residents) > 0 {
					want = n.cfg.Duration
				}
				if got := sh.clk.Now(); got != want {
					t.Fatalf("workers=%d: after barrier %d (t=%v) shard %d's clock reads %v, want %v", workers, barrier, now, c, got, want)
				}
			}
		}
	}
}
