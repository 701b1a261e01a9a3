package experiments

import (
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// condition is one row of a §6.2 system-level figure: a label and the cell
// the full system runs in.
type condition struct {
	label string
	cell  lte.CellProfile
}

// systemLevel builds one §6.2 figure pair: the full POI360 system
// (adaptive compression + FBCC) under each condition, reported as a freeze
// ratio / PSNR table (id minus its last letter, e.g. fig17a) and a MOS PDF
// table (id minus its second-to-last letter, e.g. fig17b), both titled by
// what the conditions vary.
func systemLevel(id, title, paper, varies string, conds ...condition) Experiment {
	return Experiment{ID: id, Title: title, Paper: paper, Run: func(o Options) (*Report, error) {
		bases := make([]session.Config, len(conds))
		for i, c := range conds {
			bases[i] = campus(session.RCFBCC)
			bases[i].Cell = c.cell
		}
		aggs, err := runBatches(o, bases)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		n := len(id)
		frTab := trace.New(id[:n-1], "Freeze ratio and PSNR vs "+varies, "condition", "freeze ratio", "mean PSNR")
		mosTab := trace.New(id[:n-2]+id[n-1:], "MOS PDF vs "+varies, "condition", "Bad", "Poor", "Fair", "Good", "Excellent")
		for i, agg := range aggs {
			label := conds[i].label
			fr, psnr, pdf := agg.FreezeRatio(), agg.PSNR(), agg.MOSPDF()
			frTab.Add(label, trace.Pct(fr), trace.DB(psnr.Mean))
			mosTab.Add(append([]string{label}, mosRow(pdf)...)...)
			rep.Measured[label+"_fr"] = fr
			rep.Measured[label+"_psnr"] = psnr.Mean
			rep.Measured[label+"_goodOrBetter"] = pdf[metrics.Good] + pdf[metrics.Excellent]
		}
		rep.Tables = append(rep.Tables, frTab, mosTab)
		return rep, nil
	}}
}

// Fig17ab reproduces Figs. 17a/17b: the full system under light vs heavy
// background traffic in the same cell.
var Fig17ab = systemLevel("fig17ab", "System level: background traffic load",
	"FR ≈1% idle, ≈4% busy; PSNR drops ~2 dB under load; most frames good/excellent even busy",
	"background load",
	condition{"idle (early morning)", lte.ProfileStrongIdle},
	condition{"busy (campus noon)", lte.ProfileBusy})

// Fig17cd reproduces Figs. 17c/17d: the full system across LTE channel
// qualities (the paper's garage / shadowed lot / open lot locations).
var Fig17cd = systemLevel("fig17cd", "System level: LTE channel quality (RSS)",
	"FR stays ≤3% even at −115 dBm; quality drops with RSS (no excellent frames on weak signal; 31% excellent on strong)",
	"signal strength",
	condition{"weak (-115 dBm garage)", lte.ProfileWeak},
	condition{"moderate (-82 dBm shadowed)", lte.ProfileModerate},
	condition{"strong (-73 dBm open)", lte.ProfileStrongIdle})

// Fig17ef reproduces Figs. 17e/17f: the full system inside a moving vehicle
// at three speeds. The paper's highway route has stronger signal (less
// blockage), which it credits for the good quality at 50 mph; the highway
// profile mirrors that.
var Fig17ef = systemLevel("fig17ef", "System level: mobility",
	"FR ~1% at 15 mph, ~7% at 30, ~9% at 50; at 50 mph all frames still good/excellent thanks to high RSS along the highway",
	"driving speed",
	condition{"15 mph residential", lte.CellProfile{RSSdBm: -80, BackgroundLoad: 0.15, SpeedMph: 15, Seed: 1}},
	condition{"30 mph urban", lte.CellProfile{RSSdBm: -82, BackgroundLoad: 0.2, SpeedMph: 30, Seed: 1}},
	condition{"50 mph highway", lte.CellProfile{RSSdBm: -60, BackgroundLoad: 0.12, SpeedMph: 50, Seed: 1}})
