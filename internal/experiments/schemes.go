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

// schemeCell is one (network, scheme) batch of the §6.1.1 grid.
type schemeCell struct {
	gridBatch
	net, sch string // the names the tables print
	agg      *sessionAgg
}

// key names a Measured entry or series of the cell.
func (c schemeCell) key(metric string) string { return c.net + "_" + c.sch + "_" + metric }

// schemeGrid runs (or recalls) the §6.1.1 setup — every compared scheme on
// every compared network, GCC transport to isolate compression, campus
// cell, all user profiles — through one shared worker pool, so Figs. 11–14
// saturate every core across batch boundaries and derive from the same
// runs, as in the paper. Cells come network-major in comparedNetworks /
// comparedSchemes order, so each network's POI360 cell leads its row.
func schemeGrid(o Options) ([]schemeCell, error) {
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
	cells := make([]schemeCell, len(specs))
	for i, sp := range specs {
		cells[i] = schemeCell{sp, sp.network.String(), sp.scheme.String(), aggs[i]}
	}
	return cells, nil
}

// Fig11 reproduces Figs. 11a–11d: user-perceived ROI PSNR and its MOS
// distribution for POI360 vs Conduit vs Pyramid over wireline and cellular.
var Fig11 = Experiment{
	ID:    "fig11",
	Title: "ROI video quality under the three compression schemes",
	Paper: "POI360 highest PSNR everywhere; on cellular Conduit/Pyramid fall 11–13 dB below; POI360 cellular MOS: 52% good + 4% excellent, Conduit none good, Pyramid 7% good",
	Run: func(o Options) (*Report, error) {
		cells, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		psnrTab := trace.New("fig11ab", "ROI PSNR (mean ± std)",
			"network", "scheme", "mean PSNR", "std")
		mosTab := trace.New("fig11cd", "MOS PDF",
			"network", "scheme", "Bad", "Poor", "Fair", "Good", "Excellent")
		for _, c := range cells {
			s, pdf := c.agg.PSNR(), c.agg.MOSPDF()
			psnrTab.Add(c.net, c.sch, trace.DB(s.Mean), trace.DB(s.Std))
			mosTab.Add(append([]string{c.net, c.sch}, mosRow(pdf)...)...)
			rep.Measured[c.key("psnr")] = s.Mean
			rep.Measured[c.key("goodOrBetter")] = pdf[metrics.Good] + pdf[metrics.Excellent]
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
		cells, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig12", "Std of ROI compression level in a 2 s window",
			"network", "scheme", "mean std", "P90 std", "× POI360")
		var baseline float64 // the stability of the network's POI360 cell
		for _, c := range cells {
			s := c.agg.Stability()
			ratio := "1.0"
			if c.scheme == session.SchemeAdaptive {
				baseline = s.Mean
			} else if baseline > 0 {
				ratio = trace.F(s.Mean/baseline, 1)
			}
			tab.Add(c.net, c.sch, trace.F(s.Mean, 2), trace.F(s.P90, 2), ratio)
			rep.Measured[c.key("stab")] = s.Mean
			rep.Series = append(rep.Series, cdfSeries(c.key("stability"), c.agg.Stab))
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
		cells, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig13", "Frame delay percentiles (ms)",
			"network", "scheme", "median", "P90", "P99")
		for _, c := range cells {
			d := c.agg.Delay()
			tab.Add(c.net, c.sch, trace.Ms(d.Median), trace.Ms(d.P90), trace.Ms(d.P99))
			rep.Measured[c.key("median")] = d.Median
			rep.Series = append(rep.Series, cdfSeries(c.key("delay_ms"), c.agg.DelaysMs))
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
		cells, err := schemeGrid(o)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		tab := trace.New("fig14", "Freeze ratio (delay > 600 ms or frame lost)",
			"network", "scheme", "freeze ratio")
		for _, c := range cells {
			fr := c.agg.FreezeRatio()
			tab.Add(c.net, c.sch, trace.Pct(fr))
			rep.Measured[c.key("fr")] = fr
		}
		tab.Note("Conduit's tight crop keeps its bitrate low in this model, so its freeze ratio undershoots the paper's 8%%; see EXPERIMENTS.md")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
