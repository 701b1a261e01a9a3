package experiments

import (
	"time"

	"poi360/internal/netsim"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// ExtPrediction tests the §8 discussion: motion-based ROI prediction only
// extrapolates reliably ~120 ms ahead, below mobile interactive latency,
// so it narrows — but cannot close — the staleness gap that adaptive
// compression absorbs.
var ExtPrediction = Experiment{
	ID:    "ext-predict",
	Title: "Extension (§8): motion-based ROI prediction",
	Paper: "§8: head position beyond ~120 ms is unpredictable, which is below typical video latency over LTE — prediction helps but cannot replace adaptation",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("ext-predict", "POI360 with and without the ~120 ms motion predictor (campus cell)",
			"variant", "mean PSNR", "P10 PSNR", "mean mismatch M")
		names := []string{"no prediction", "with prediction"}
		predict := campus(session.RCGCC)
		predict.ROIPrediction = true
		aggs, err := runBatches(o, []session.Config{campus(session.RCGCC), predict})
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			p, meanM := agg.PSNR(), agg.MeanMismatch()
			tab.Add(names[i], trace.DB(p.Mean), trace.DB(p.P10), trace.F(meanM*1000, 0)+" ms")
			rep.Measured[names[i]+"_psnr"] = p.Mean
			rep.Measured[names[i]+"_p10"] = p.P10
			rep.Measured[names[i]+"_m"] = meanM
		}
		tab.Note("prediction is clamped to the 120 ms horizon the paper cites; end-to-end staleness is several times that")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// EdgePath is the §8 future-work path: mobile edge computing relays the
// session at the base station, collapsing the core-network segment.
var EdgePath = netsim.PathProfile{
	Name:          "cellular-edge",
	CoreBase:      6 * time.Millisecond,
	CoreJitterStd: 2 * time.Millisecond,
	CoreSpikeProb: 0.0002,
	CoreSpikeMax:  60 * time.Millisecond,
	RevBase:       10 * time.Millisecond,
	RevJitterStd:  4 * time.Millisecond,
	RevSpikeProb:  0.0005,
	RevSpikeMax:   80 * time.Millisecond,
}

// ExtEdgeRelay tests the §8 future-work idea: relaying at the edge BS
// shortens the end-to-end path and accelerates ROI-quality convergence.
var ExtEdgeRelay = Experiment{
	ID:    "ext-edge",
	Title: "Extension (§8): mobile-edge relaying",
	Paper: "§8: edge relaying shortens the path, cutting the cellular RTT component of the ROI update and speeding quality convergence",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("ext-edge", "POI360 via the Internet core vs an edge relay (campus cell)",
			"path", "mean PSNR", "mean mismatch M", "median delay")
		names := []string{"internet core", "edge relay"}
		edge := campus(session.RCGCC)
		edge.Path = EdgePath
		aggs, err := runBatches(o, []session.Config{campus(session.RCGCC), edge})
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			meanM := agg.MeanMismatch()
			tab.Add(names[i], trace.DB(agg.PSNR().Mean), trace.F(meanM*1000, 0)+" ms", trace.Ms(agg.Delay().Median))
			rep.Measured[names[i]+"_psnr"] = agg.PSNR().Mean
			rep.Measured[names[i]+"_m"] = meanM
			rep.Measured[names[i]+"_delay"] = agg.Delay().Median
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
