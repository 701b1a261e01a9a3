package experiments

import (
	"fmt"
	"time"

	"poi360/internal/network"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// cityRow is one city configuration of the multi-cell study: a cell
// grid, a UE population, and a mobility intensity (mean cell dwell;
// 0 = static population, the no-handover baseline).
type cityRow struct {
	cells int
	ues   int
	dwell time.Duration
}

// cityRows picks the table's grid. Quick keeps the whole table inside a
// unit-test budget; full scale runs the rush-hour city from the issue's
// acceptance bar (100 cells × 800 UEs, 3 s dwell).
func cityRows(quick bool) []cityRow {
	if quick {
		return []cityRow{
			{cells: 4, ues: 16, dwell: 0},
			{cells: 4, ues: 16, dwell: 1500 * time.Millisecond},
			{cells: 9, ues: 36, dwell: time.Second},
		}
	}
	return []cityRow{
		{cells: 25, ues: 150, dwell: 0},
		{cells: 25, ues: 150, dwell: 8 * time.Second},
		{cells: 64, ues: 400, dwell: 5 * time.Second},
		{cells: 100, ues: 800, dwell: 3 * time.Second},
	}
}

// cityDuration is the per-run simulated time (o.SessionTime overrides).
func cityDuration(o Options) time.Duration {
	if o.SessionTime > 0 {
		return o.SessionTime
	}
	if o.Quick {
		return 6 * time.Second
	}
	return 30 * time.Second
}

// cityAgg folds one row's repeats.
type cityAgg struct {
	runs          int
	handovers     int
	ues           int
	outageSum     time.Duration
	degradations  int
	recoveries    int
	freezeFBCCSum float64
	freezeGCCSum  float64
	jainSum       float64
	cellJainSum   float64
	tputSum       float64
}

func (a *cityAgg) fold(res *network.Result) {
	a.runs++
	a.handovers += res.Handovers
	a.ues += res.UEs
	a.outageSum += time.Duration(res.Handovers) * res.OutageMean
	a.degradations += res.Degradations
	a.recoveries += res.Recoveries
	a.freezeFBCCSum += res.FreezeFBCC
	a.freezeGCCSum += res.FreezeGCC
	a.jainSum += res.JainGlobal
	a.cellJainSum += res.MeanPerCellJain()
	a.tputSum += res.ThroughputBps
}

func (a *cityAgg) handoverPerUE() float64 {
	if a.ues == 0 {
		return 0
	}
	return float64(a.handovers) / float64(a.ues)
}

func (a *cityAgg) meanOutage() time.Duration {
	if a.handovers == 0 {
		return 0
	}
	return a.outageSum / time.Duration(a.handovers)
}

func (a *cityAgg) mean(sum float64) float64 {
	if a.runs == 0 {
		return 0
	}
	return sum / float64(a.runs)
}

// Network runs the multi-cell city table: cells × UEs × mobility
// intensity, with handover, outage, watchdog and fairness columns. Every
// handover in the table is emergent — a mobility trace crossing a cell
// border — rather than a scripted fault window.
var Network = Experiment{
	ID:    "network",
	Title: "Multi-cell city: emergent handover, watchdog recovery, fairness",
	Paper: "§6.2 drives through real cells and reports handover stalls killing GCC while FBCC's watchdog degrades and recovers; this table reproduces that dynamic at city scale with hundreds of cells and emergent (not scripted) handovers",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("network", "deterministic multi-cell city runs (on-demand cell shards, PF uplinks, grid-walk mobility)",
			"cells", "UEs", "dwell", "HO/UE", "outage", "wdog ↓/↑", "freeze fbcc", "freeze gcc", "Jain", "cell Jain", "aggregate")

		rows := cityRows(o.Quick)
		repeats := o.repeats()
		// Each item is one city run with its internal shard pool at 1, so
		// the grid never oversubscribes the machine (the city is
		// byte-identical at any Workers value either way).
		slots, err := runGrid(o, len(rows), repeats, func(row, rp int) (*network.Result, error) {
			rk := rows[row]
			res, err := network.Run(network.Config{
				Cells:     rk.cells,
				UEs:       rk.ues,
				Duration:  cityDuration(o),
				Seed:      session.DeriveSeed(o.Seed, row, rp),
				MeanDwell: rk.dwell,
				Workers:   1,
			})
			if err != nil {
				return nil, fmt.Errorf("network (cells=%d, ues=%d, repeat=%d): %w", rk.cells, rk.ues, rp, err)
			}
			return res, nil
		}, func(_, _ int, res *network.Result) string {
			return fmt.Sprintf("  %s\n", res.Summarize())
		})
		if err != nil {
			return nil, err
		}
		for row, rk := range rows {
			agg := &cityAgg{}
			for _, res := range slots[row*repeats : (row+1)*repeats] {
				agg.fold(res)
			}
			dwell := "static"
			if rk.dwell > 0 {
				dwell = rk.dwell.String()
			}
			tab.Add(fmt.Sprint(rk.cells), fmt.Sprint(rk.ues), dwell,
				trace.F(agg.handoverPerUE(), 2),
				agg.meanOutage().Round(time.Millisecond).String(),
				fmt.Sprintf("%d/%d", agg.degradations, agg.recoveries),
				trace.Pct(agg.mean(agg.freezeFBCCSum)),
				trace.Pct(agg.mean(agg.freezeGCCSum)),
				trace.F(agg.mean(agg.jainSum), 3),
				trace.F(agg.mean(agg.cellJainSum), 3),
				trace.Mbps(agg.mean(agg.tputSum)))
			key := fmt.Sprintf("c%d_u%d_d%s", rk.cells, rk.ues, dwell)
			rep.Measured[key+"_ho_per_ue"] = agg.handoverPerUE()
			rep.Measured[key+"_outage_ms"] = float64(agg.meanOutage()) / float64(time.Millisecond)
			rep.Measured[key+"_degradations"] = float64(agg.degradations)
			rep.Measured[key+"_recoveries"] = float64(agg.recoveries)
			rep.Measured[key+"_freeze_fbcc"] = agg.mean(agg.freezeFBCCSum)
			rep.Measured[key+"_freeze_gcc"] = agg.mean(agg.freezeGCCSum)
			rep.Measured[key+"_jain"] = agg.mean(agg.jainSum)
			rep.Measured[key+"_tput_mbps"] = agg.mean(agg.tputSum) / 1e6
		}
		tab.Note("handovers are emergent (grid-walk mobility crossing cell borders): detach discards the firmware buffer, the outage sizes from the transfer, and the FBCC watchdog (wdog ↓) trips on real diag silence then recovers (↑) when reports resume on the target cell")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
