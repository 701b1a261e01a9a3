package experiments

import (
	"poi360/internal/metrics"
	"poi360/internal/session"
	"poi360/internal/trace"
)

var comparedSchemes = []session.SchemeKind{
	session.SchemeAdaptive, session.SchemeConduit, session.SchemePyramid,
}

var comparedNetworks = []session.NetworkKind{session.Wireline, session.Cellular}

// schemeGrid runs (or recalls) the §6.1.1 setup — every compared scheme on
// every compared network, GCC transport to isolate compression, campus
// cell, all user profiles — through one shared worker pool, so Figs. 11–14
// saturate every core across batch boundaries and derive from the same
// runs, as in the paper. The result is indexed [network][scheme] in
// comparedNetworks / comparedSchemes order.
func schemeGrid(o Options) ([][]*sessionAgg, error) {
	var specs []gridBatch
	for _, net := range comparedNetworks {
		for _, sch := range comparedSchemes {
			specs = append(specs, gridBatch{scheme: sch, network: net, rc: session.RCGCC})
		}
	}
	aggs, err := memoBatches(o, specs)
	if err != nil {
		return nil, err
	}
	grid := make([][]*sessionAgg, len(comparedNetworks))
	for ni := range grid {
		grid[ni] = aggs[ni*len(comparedSchemes) : (ni+1)*len(comparedSchemes)]
	}
	return grid, nil
}

// Fig11 reproduces Figs. 11a–11d: user-perceived ROI PSNR and its MOS
// distribution for POI360 vs Conduit vs Pyramid over wireline and cellular.
var Fig11 = Experiment{
	ID:    "fig11",
	Title: "ROI video quality under the three compression schemes",
	Paper: "POI360 highest PSNR everywhere; on cellular Conduit/Pyramid fall 11–13 dB below; POI360 cellular MOS: 52% good + 4% excellent, Conduit none good, Pyramid 7% good",
	Run: func(o Options) (*Report, error) {
		grid, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		psnrTab := trace.New("fig11ab", "ROI PSNR (mean ± std)",
			"network", "scheme", "mean PSNR", "std")
		mosTab := trace.New("fig11cd", "MOS PDF",
			"network", "scheme", "Bad", "Poor", "Fair", "Good", "Excellent")
		for ni, net := range comparedNetworks {
			for si, sch := range comparedSchemes {
				agg := grid[ni][si]
				s := agg.PSNR()
				psnrTab.Add(net.String(), sch.String(), trace.DB(s.Mean), trace.DB(s.Std))
				mosTab.Add(append([]string{net.String(), sch.String()}, mosRow(agg.MOSPDF())...)...)
				rep.Measured[net.String()+"_"+sch.String()+"_psnr"] = s.Mean
				pdf := agg.MOSPDF()
				rep.Measured[net.String()+"_"+sch.String()+"_goodOrBetter"] = pdf[metrics.Good] + pdf[metrics.Excellent]
			}
		}
		rep.Tables = append(rep.Tables, psnrTab, mosTab)
		return rep, nil
	},
}

// Fig12 reproduces Figs. 12a/12b: the short-term stability of the ROI
// compression level (std over a 2 s sliding window).
var Fig12 = Experiment{
	ID:    "fig12",
	Title: "Short-term ROI compression-level variation",
	Paper: "small for all schemes on wireline; on cellular Conduit and Pyramid are many times less stable than POI360 (Conduit worst: 2-level oscillation)",
	Run: func(o Options) (*Report, error) {
		grid, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig12", "Std of ROI compression level in a 2 s window",
			"network", "scheme", "mean std", "P90 std", "× POI360")
		for ni, net := range comparedNetworks {
			var baseline float64
			for si, sch := range comparedSchemes {
				agg := grid[ni][si]
				s := agg.Stability()
				if sch == session.SchemeAdaptive {
					baseline = s.Mean
				}
				ratio := "1.0"
				if sch != session.SchemeAdaptive && baseline > 0 {
					ratio = trace.F(s.Mean/baseline, 1)
				}
				tab.Add(net.String(), sch.String(), trace.F(s.Mean, 2), trace.F(s.P90, 2), ratio)
				rep.Measured[net.String()+"_"+sch.String()+"_stab"] = s.Mean
				rep.Series = append(rep.Series,
					cdfSeries(net.String()+"_"+sch.String()+"_stability", agg.Stab))
			}
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// Fig13 reproduces Figs. 13a/13b: the per-frame end-to-end delay CDF.
var Fig13 = Experiment{
	ID:    "fig13",
	Title: "360° video frame delay",
	Paper: "POI360 lowest delay; cellular median ≈460 ms, 15% below Conduit; Pyramid highest (less aggressive compression)",
	Run: func(o Options) (*Report, error) {
		grid, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig13", "Frame delay percentiles (ms)",
			"network", "scheme", "median", "P90", "P99")
		for ni, net := range comparedNetworks {
			for si, sch := range comparedSchemes {
				agg := grid[ni][si]
				d := agg.Delay()
				tab.Add(net.String(), sch.String(), trace.Ms(d.Median), trace.Ms(d.P90), trace.Ms(d.P99))
				rep.Measured[net.String()+"_"+sch.String()+"_median"] = d.Median
				rep.Series = append(rep.Series,
					cdfSeries(net.String()+"_"+sch.String()+"_delay_ms", agg.DelaysMs))
			}
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// Fig14 reproduces Figs. 14a/14b: the freeze ratio (frames >600 ms).
var Fig14 = Experiment{
	ID:    "fig14",
	Title: "Video freeze ratio",
	Paper: "wireline: all <2% (POI360 0.6%); cellular: Conduit/Pyramid 8–17%, POI360 <3%",
	Run: func(o Options) (*Report, error) {
		grid, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig14", "Freeze ratio (delay > 600 ms or frame lost)",
			"network", "scheme", "freeze ratio")
		for ni, net := range comparedNetworks {
			for si, sch := range comparedSchemes {
				agg := grid[ni][si]
				fr := agg.FreezeRatio()
				tab.Add(net.String(), sch.String(), trace.Pct(fr))
				rep.Measured[net.String()+"_"+sch.String()+"_fr"] = fr
			}
		}
		tab.Note("Conduit's tight crop keeps its bitrate low in this model, so its freeze ratio undershoots the paper's 8%%; see EXPERIMENTS.md")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
