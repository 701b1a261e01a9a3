package experiments

import (
	"fmt"

	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// multiUserSizes are the cell populations of the contention study.
var multiUserSizes = []int{2, 4, 8}

// multiUserMixes names the rate-control populations: everyone FBCC,
// everyone GCC, or an alternating half-and-half cell.
var multiUserMixes = []string{"fbcc", "gcc", "half"}

// multiUserRC assigns user i's controller under a mix.
func multiUserRC(mix string, i int) session.RCKind {
	switch mix {
	case "fbcc":
		return session.RCFBCC
	case "gcc":
		return session.RCGCC
	default: // half: even users FBCC, odd users GCC
		if i%2 == 0 {
			return session.RCFBCC
		}
		return session.RCGCC
	}
}

// multiUserScenario builds the N-user shared-cell scenario for one
// (row, repeat) grid cell. The scenario seed derives injectively from the
// experiment seed, and every session seed derives from the scenario seed
// inside RunShared, so scenarios are decorrelated by construction.
func multiUserScenario(o Options, row, repeat, n int, mix string) session.MultiConfig {
	mc := session.MultiConfig{
		Duration: o.sessionTime(),
		Cell:     lte.ProfileCampus,
		Seed:     session.DeriveSeed(o.Seed, row, repeat),
	}
	for i := 0; i < n; i++ {
		mc.Sessions = append(mc.Sessions, session.Config{
			Scheme:      session.SchemeAdaptive,
			RC:          multiUserRC(mix, i),
			User:        userProfile(i),
			StatsWarmup: batchWarmup,
		})
	}
	return mc
}

// multiUserAgg aggregates one table row (a size × mix cell over repeats).
type multiUserAgg struct {
	jainSum   float64 // Jain index per scenario, summed over repeats
	scenarios int
	shareMin  float64   // worst per-UE mean throughput across scenarios
	shareMax  float64   // best per-UE mean throughput across scenarios
	fbccThrpt []float64 // per-second throughput samples, FBCC users
	gccThrpt  []float64 // per-second throughput samples, GCC users
	psnrs     []float64
	freezes   float64
	frames    int
}

func newMultiUserAgg() *multiUserAgg {
	return &multiUserAgg{shareMin: -1, shareMax: -1}
}

func (a *multiUserAgg) fold(results []*session.Result) {
	shares := make([]float64, len(results))
	for i, r := range results {
		shares[i] = r.ThroughputSummary().Mean
		if a.shareMin < 0 || shares[i] < a.shareMin {
			a.shareMin = shares[i]
		}
		if shares[i] > a.shareMax {
			a.shareMax = shares[i]
		}
		if r.Config.RC == session.RCFBCC {
			a.fbccThrpt = append(a.fbccThrpt, r.Throughput...)
		} else {
			a.gccThrpt = append(a.gccThrpt, r.Throughput...)
		}
		a.psnrs = append(a.psnrs, r.ROIPSNRs...)
		n := len(r.FrameDelays) + r.FramesLost
		a.freezes += r.FreezeRatio() * float64(n)
		a.frames += n
	}
	a.jainSum += metrics.JainFairness(shares)
	a.scenarios++
}

func (a *multiUserAgg) jain() float64 {
	if a.scenarios == 0 {
		return 0
	}
	return a.jainSum / float64(a.scenarios)
}

func (a *multiUserAgg) freezeRatio() float64 {
	if a.frames == 0 {
		return 0
	}
	return a.freezes / float64(a.frames)
}

// meanThrptCell guards the GCC column of an all-FBCC row (and vice versa).
func meanThrptCell(xs []float64) string {
	if len(xs) == 0 {
		return "—"
	}
	return trace.Mbps(metrics.Summarize(xs).Mean)
}

// MultiUser contends N simultaneous telephony sessions for one campus
// cell's uplink under the proportional-fair subframe scheduler and reports
// how capacity splits: per-UE share extremes, Jain fairness, per-controller
// throughput, freeze ratio and ROI quality, for all-FBCC, all-GCC and mixed
// populations at N ∈ {2, 4, 8}.
var MultiUser = Experiment{
	ID:    "multiuser",
	Title: "Shared-cell contention: FBCC vs GCC populations at N users",
	Paper: "§4 models the uplink as one UE's PF share of a cell; the paper's field tests are single-sender — this table makes the contention explicit by admitting N simulated senders to one cell",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("multiuser", "N sessions in one campus cell (PF uplink scheduler), per-population splits",
			"users", "mix", "Jain", "share min", "share max", "FBCC thrpt", "GCC thrpt", "freeze ratio", "mean PSNR")

		// The (size × mix) × repeats grid, flattened. Each grid cell is one
		// RunShared scenario — itself a whole N-user simulation — so the
		// worker pool fans out over scenarios, and results fold back in
		// grid order for byte-identical reports at any Workers value.
		type rowKey struct {
			n   int
			mix string
		}
		var rows []rowKey
		for _, n := range multiUserSizes {
			for _, mix := range multiUserMixes {
				rows = append(rows, rowKey{n, mix})
			}
		}
		repeats := o.repeats()
		total := len(rows) * repeats
		slots := make([][]*session.Result, total)
		var progress *progressBuffer
		if o.Progress != nil {
			progress = newProgressBuffer(o.Progress)
		}

		runOne := func(i int) error {
			row, rp := i/repeats, i%repeats
			rk := rows[row]
			mc := multiUserScenario(o, row, rp, rk.n, rk.mix)
			results, err := session.RunShared(mc)
			if err != nil {
				progress.emit(i, "")
				return fmt.Errorf("multiuser (n=%d, mix=%s, repeat=%d): %w", rk.n, rk.mix, rp, err)
			}
			slots[i] = results
			if progress != nil {
				shares := make([]float64, len(results))
				for j, r := range results {
					shares[j] = r.ThroughputSummary().Mean
				}
				progress.emit(i, fmt.Sprintf("  n=%d mix=%s rep=%d: Jain %.3f\n",
					rk.n, rk.mix, rp, metrics.JainFairness(shares)))
			}
			return nil
		}

		if err := fanOut(o.workers(), total, runOne); err != nil {
			return nil, err
		}

		// Deterministic fold, grid order.
		for row, rk := range rows {
			agg := newMultiUserAgg()
			for rp := 0; rp < repeats; rp++ {
				agg.fold(slots[row*repeats+rp])
			}
			psnr := metrics.Summarize(agg.psnrs).Mean
			tab.Add(fmt.Sprint(rk.n), rk.mix,
				trace.F(agg.jain(), 3),
				trace.Mbps(agg.shareMin),
				trace.Mbps(agg.shareMax),
				meanThrptCell(agg.fbccThrpt),
				meanThrptCell(agg.gccThrpt),
				trace.Pct(agg.freezeRatio()),
				trace.DB(psnr))
			key := fmt.Sprintf("n%d/%s", rk.n, rk.mix)
			rep.Measured[key+"_jain"] = agg.jain()
			rep.Measured[key+"_fr"] = agg.freezeRatio()
			rep.Measured[key+"_psnr"] = psnr
			if len(agg.fbccThrpt) > 0 {
				rep.Measured[key+"_fbcc_thrpt"] = metrics.Summarize(agg.fbccThrpt).Mean
			}
			if len(agg.gccThrpt) > 0 {
				rep.Measured[key+"_gcc_thrpt"] = metrics.Summarize(agg.gccThrpt).Mean
			}
		}
		tab.Note("contention emerges from per-subframe PF grants (metric r_i/T_i, buffer-aware per Fig. 5) — not from a background-load scalar; each scenario is one clock shared by N sessions")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
