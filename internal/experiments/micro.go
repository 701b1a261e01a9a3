package experiments

import (
	"time"

	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/session"
	"poi360/internal/simclock"
	"poi360/internal/trace"
)

// userProfile maps a batch index to one of the five user profiles.
func userProfile(u int) headmotion.Profile {
	return headmotion.Users[u%len(headmotion.Users)]
}

// Fig05 reproduces Fig. 5: the relation between firmware-buffer occupancy
// and per-second uplink TBS — linear at low occupancy, saturating at the
// cell capacity beyond the knee. The workload holds the buffer at a series
// of levels and measures the granted throughput.
var Fig05 = Experiment{
	ID:    "fig5",
	Title: "Firmware buffer occupancy vs uplink TBS/s",
	Paper: "TBS/s grows ~linearly with buffer level and saturates near 5 Mbps around 10–15 KB (LTE proportional-fair uplink scheduling)",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("fig5", "Uplink TBS/s at held firmware-buffer levels (strong idle cell)",
			"buffer (KB)", "TBS/s", "fraction of capacity")
		series := trace.Series{Name: "buffer_vs_tbs"}

		dur := 20 * time.Second
		if !o.Quick {
			dur = 60 * time.Second
		}
		cell := lte.ProfileStrongIdle
		cell.Seed = o.Seed + 5
		capacity := lte.BaseCapacity(cell.RSSdBm) * (1 - cell.BackgroundLoad)

		levels := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24}
		for _, kb := range levels {
			level := kb * 1024
			clk := simclock.New()
			u, err := lte.NewUplink(clk, lte.DefaultConfig(cell), nil)
			if err != nil {
				return nil, err
			}
			u.Start()
			clk.Ticker(lte.Subframe, func() {
				if d := level - u.BufferBytes(); d > 0 {
					u.Enqueue(lte.Packet{Bytes: d})
				}
			})
			clk.Run(dur)
			rate := u.TotalServedBits() / dur.Seconds()
			tab.Add(trace.F(float64(kb), 0), trace.Mbps(rate), trace.Pct(rate/capacity))
			series.Append(float64(kb), rate/1e6)
			rep.Measured[trace.F(float64(kb), 0)+"KB"] = rate
		}
		tab.Note("knee configured at %.0f KB; capacity %s", 10.0, trace.Mbps(capacity))
		rep.Measured["capacity"] = capacity
		rep.Tables = append(rep.Tables, tab)
		rep.Series = append(rep.Series, series)
		return rep, nil
	},
}

// Fig06 reproduces Fig. 6: the CDF of the firmware-buffer level while a 4K
// panoramic stream runs under WebRTC's default (GCC) rate control — the
// buffer spends a large fraction of the time in the low-usage region, the
// bandwidth-underutilization motivation of §3.3.
var Fig06 = Experiment{
	ID:    "fig6",
	Title: "Firmware buffer level CDF under WebRTC/GCC rate control",
	Paper: "buffer empty ≈40% of the time even though traffic exceeds the available bandwidth",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		// The cellular POI360 cell of the §6.1.1 grid and the GCC half of the
		// §6.1.2 comparison: one set of runs serves all three.
		aggs, err := memoBatches(o, []gridBatch{{scheme: session.SchemeAdaptive, network: session.Cellular, rc: session.RCGCC}})
		if err != nil {
			return nil, err
		}
		bufs := aggs[0].BufferKB()
		s := metrics.Summarize(bufs)
		lowUsage := metrics.CDFAt(bufs, 4) // the Fig. 15 low-usage region (<~2 Mbps of grant)
		empty := metrics.CDFAt(bufs, 0.25)

		tab := trace.New("fig6", "Firmware buffer level under GCC (campus cell, adaptive compression)",
			"metric", "value")
		tab.Add("samples", trace.F(float64(s.N), 0))
		tab.Add("median (KB)", trace.F(s.Median, 2))
		tab.Add("P90 (KB)", trace.F(s.P90, 2))
		tab.Add("fraction < 0.25 KB (≈empty)", trace.Pct(empty))
		tab.Add("fraction < 4 KB (low-usage region)", trace.Pct(lowUsage))
		tab.Note("paper counts exact zeros; the simulator samples at 40 ms so near-empty buckets stand in")
		rep.Measured["empty"] = empty
		rep.Measured["lowUsage"] = lowUsage
		rep.Measured["medianKB"] = s.Median
		rep.Tables = append(rep.Tables, tab)
		rep.Series = append(rep.Series, cdfSeries("gcc_buffer_kb", bufs))
		return rep, nil
	},
}

// Table1 reproduces Table 1: the PSNR→MOS mapping, exercised across the
// band boundaries.
var Table1 = Experiment{
	ID:    "table1",
	Title: "PSNR to Mean Opinion Score mapping",
	Paper: ">37 Excellent, 31–37 Good, 25–31 Fair, 20–25 Poor, <20 Bad",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("table1", "MOS bands (Table 1)", "MOS", "PSNR range (dB)", "probe", "mapped")
		probes := []struct {
			mos   metrics.MOS
			rng   string
			probe float64
		}{
			{metrics.Excellent, "> 37", 39},
			{metrics.Good, "31 – 37", 34},
			{metrics.Fair, "25 – 31", 28},
			{metrics.Poor, "20 – 25", 22},
			{metrics.Bad, "< 20", 15},
		}
		for _, p := range probes {
			got := metrics.MOSForPSNR(p.probe)
			tab.Add(p.mos.String(), p.rng, trace.DB(p.probe), got.String())
			if got == p.mos {
				rep.Measured[p.mos.String()] = 1
			} else {
				rep.Measured[p.mos.String()] = 0
			}
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// fbccGCCBatch runs (or recalls) the §6.1.2 comparison: the same
// adaptive-compression session under GCC and under FBCC, both controllers'
// sessions interleaved across every core. Figs. 15/16a/16b derive from the
// same runs, as in the paper — and the GCC half is the cellular POI360 cell
// of the §6.1.1 grid, so it runs once for both.
func fbccGCCBatch(o Options) (gcc, fbcc *sessionAgg, err error) {
	aggs, err := memoBatches(o, []gridBatch{
		{scheme: session.SchemeAdaptive, network: session.Cellular, rc: session.RCGCC},
		{scheme: session.SchemeAdaptive, network: session.Cellular, rc: session.RCFBCC},
	})
	if err != nil {
		return nil, nil, err
	}
	return aggs[0], aggs[1], nil
}

// Fig15 reproduces Fig. 15: where FBCC and GCC sit on the buffer-level /
// TBS plane. FBCC holds the buffer near the sweet spot in the high-usage
// region; GCC lingers in the low-usage region.
var Fig15 = Experiment{
	ID:    "fig15",
	Title: "Buffer level vs TBS operating points: FBCC vs GCC",
	Paper: "FBCC sits at the sweet spot (high usage, pre-saturation); GCC stays in the low-usage region for a substantial fraction of samples",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		gcc, fbcc, err := fbccGCCBatch(o)
		if err != nil {
			return nil, err
		}
		tab := trace.New("fig15", "Firmware buffer occupancy while streaming (campus cell)",
			"controller", "median buffer (KB)", "P90 buffer (KB)", "fraction < 2 KB", "fraction 2–16 KB", "fraction > 16 KB")
		classify := func(agg *sessionAgg, name string) {
			bufs := agg.BufferKB()
			s := metrics.Summarize(bufs)
			low := metrics.CDFAt(bufs, 2)
			high := metrics.CDFAt(bufs, 16)
			tab.Add(name, trace.F(s.Median, 2), trace.F(s.P90, 2),
				trace.Pct(low), trace.Pct(high-low), trace.Pct(1-high))
			rep.Measured[name+"_medianKB"] = s.Median
			rep.Measured[name+"_low"] = low
			scatter := trace.Series{Name: name + "_buffer_tbs"}
			for i, d := range agg.Diag {
				if i%7 == 0 { // thin the scatter
					scatter.Append(float64(d.BufferBytes)/1024, d.TBSRate/1e6)
				}
			}
			rep.Series = append(rep.Series, scatter)
		}
		classify(gcc, "GCC")
		classify(fbcc, "FBCC")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// Fig16a reproduces Fig. 16a: throughput and freeze ratio under FBCC vs GCC.
var Fig16a = Experiment{
	ID:    "fig16a",
	Title: "Throughput and freeze ratio: FBCC vs GCC",
	Paper: "nearly identical mean throughput (~3 Mbps); GCC std 57% higher; freeze ratio 4.7% (GCC) vs 1.6% (FBCC)",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		gcc, fbcc, err := fbccGCCBatch(o)
		if err != nil {
			return nil, err
		}
		tab := trace.New("fig16a", "Throughput / freeze ratio (campus cell, adaptive compression)",
			"controller", "mean throughput", "throughput std", "freeze ratio")
		names := []string{"FBCC", "GCC"}
		for i, agg := range []*sessionAgg{fbcc, gcc} {
			ts := metrics.Summarize(agg.Throughput)
			tab.Add(names[i], trace.Mbps(ts.Mean), trace.Mbps(ts.Std), trace.Pct(agg.FreezeRatio()))
			rep.Measured[names[i]+"_thr"] = ts.Mean
			rep.Measured[names[i]+"_std"] = ts.Std
			rep.Measured[names[i]+"_fr"] = agg.FreezeRatio()
		}
		rep.Measured["fbcc_overuses"] = float64(fbcc.Overuses)
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// Fig16b reproduces Fig. 16b: the MOS distribution under FBCC vs GCC.
var Fig16b = Experiment{
	ID:    "fig16b",
	Title: "Video quality (MOS PDF): FBCC vs GCC",
	Paper: "FBCC: 69% good + 23% excellent; GCC: >40% of frames only fair",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		gcc, fbcc, err := fbccGCCBatch(o)
		if err != nil {
			return nil, err
		}
		tab := trace.New("fig16b", "MOS PDF (campus cell, adaptive compression)",
			"controller", "Bad", "Poor", "Fair", "Good", "Excellent")
		names := []string{"FBCC", "GCC"}
		for i, agg := range []*sessionAgg{fbcc, gcc} {
			pdf := agg.MOSPDF()
			tab.Add(append([]string{names[i]}, mosRow(pdf)...)...)
			rep.Measured[names[i]+"_good"] = pdf[metrics.Good]
			rep.Measured[names[i]+"_exc"] = pdf[metrics.Excellent]
			rep.Measured[names[i]+"_fairOrWorse"] = pdf[metrics.Fair] + pdf[metrics.Poor] + pdf[metrics.Bad]
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
