package experiments

import (
	"fmt"
	"time"

	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/netsim"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// AblationNoModeSwitch pins the adaptive controller to single fixed modes,
// demonstrating why the K=8 mode switching of §4.2 matters: every fixed
// mode loses to the adaptive policy on either quality or freezes.
var AblationNoModeSwitch = Experiment{
	ID:    "abl-modes",
	Title: "Ablation: adaptive mode switching vs fixed modes",
	Paper: "implied by §3.1/Fig. 4: aggressive fixed modes are unstable under ROI change, conservative fixed modes overload the link",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("abl-modes", "Fixed Eq. 1 modes vs POI360's adaptive switching (busy cell, GCC)",
			"controller", "mean PSNR", "P10 PSNR", "freeze ratio", "mean stability std")

		// Two latency regimes: the busy cell (short feedback path) and the
		// same cell behind a long-haul path (laggy ROI feedback, the Fig. 4
		// regime where conservative modes earn their keep). A fixed mode
		// can win one regime but not both; adaptation tracks the best.
		longHaul := netsim.CellularPath
		longHaul.Name = "cellular-longhaul"
		longHaul.CoreBase = 120 * time.Millisecond
		longHaul.RevBase = 250 * time.Millisecond
		longHaul.RevJitterStd = 60 * time.Millisecond

		regimes := []struct {
			label string
			path  netsim.PathProfile
		}{
			{"short path", netsim.CellularPath},
			{"long path", longHaul},
		}
		// Collect every row's config first, run them all through one shared
		// worker pool, then build the table in row order.
		var (
			names []string
			cfgs  []session.Config
		)
		for _, reg := range regimes {
			base := campus(session.RCGCC)
			base.Cell, base.Path = lte.ProfileBusy, reg.path
			names = append(names, reg.label+" adaptive (POI360)")
			cfgs = append(cfgs, base)
			for _, c := range []float64{1.8, 1.4, 1.1} {
				fixed := base
				fixed.Scheme = session.SchemeFixed
				fixed.FixedC = c
				names = append(names, fmt.Sprintf("%s fixed C=%.1f", reg.label, c))
				cfgs = append(cfgs, fixed)
			}
		}
		aggs, err := runBatches(o, cfgs)
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			name := names[i]
			tab.Add(name, trace.DB(agg.PSNR().Mean), trace.DB(agg.PSNR().P10), trace.Pct(agg.FreezeRatio()), trace.F(agg.Stability().Mean, 2))
			rep.Measured[name+"_psnr"] = agg.PSNR().Mean
			rep.Measured[name+"_p10"] = agg.PSNR().P10
			rep.Measured[name+"_fr"] = agg.FreezeRatio()
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// AblationFBCCK sweeps the Eq. 3 detection window K: small K reacts faster
// but false-fires on grant noise, large K converges toward end-to-end
// detection latency. The paper chose K=10 "to guarantee responsiveness".
var AblationFBCCK = Experiment{
	ID:    "abl-k",
	Title: "Ablation: FBCC congestion-detection window K",
	Paper: "§4.3.1 picks K=10 (≈400 ms of 40 ms reports) as the responsiveness/robustness balance",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("abl-k", "FBCC with different Eq. 3 windows (campus cell)",
			"K", "freeze ratio", "mean PSNR", "overuse detections/session")
		ks := []int{3, 10, 25}
		cfgs := make([]session.Config, len(ks))
		for i, k := range ks {
			cfgs[i] = campus(session.RCFBCC)
			cfgs[i].FBCCK = k
		}
		aggs, err := runBatches(o, cfgs)
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			k := ks[i]
			per := float64(agg.Overuses) / float64(agg.Sessions)
			tab.Add(fmt.Sprintf("%d", k), trace.Pct(agg.FreezeRatio()), trace.DB(agg.PSNR().Mean), trace.F(per, 1))
			rep.Measured[fmt.Sprintf("K%d_fr", k)] = agg.FreezeRatio()
			rep.Measured[fmt.Sprintf("K%d_overuses", k)] = per
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// AblationNoRTPLoop disables the Eq. 7 sweet-spot pacing loop: the pacer
// falls back to tracking the video bitrate, reverting to the firmware-
// buffer starvation of Fig. 6 and losing uplink throughput.
var AblationNoRTPLoop = Experiment{
	ID:    "abl-rtp",
	Title: "Ablation: FBCC without the Eq. 7 RTP-rate loop",
	Paper: "§3.3/§4.3.2: without buffer-aware pacing the firmware buffer starves and the PF scheduler under-grants",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("abl-rtp", "FBCC with and without the sweet-spot RTP loop (campus cell)",
			"variant", "median buffer (KB)", "mean throughput", "freeze ratio")
		names := []string{"full FBCC", "no Eq. 7 loop"}
		noLoop := campus(session.RCFBCC)
		noLoop.DisableRTPLoop = true
		aggs, err := runBatches(o, []session.Config{campus(session.RCFBCC), noLoop})
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			med := metrics.Summarize(agg.BufferKB()).Median
			mean := metrics.Summarize(agg.Throughput).Mean
			tab.Add(names[i], trace.F(med, 2), trace.Mbps(mean), trace.Pct(agg.FreezeRatio()))
			rep.Measured[names[i]+"_medianKB"] = med
			rep.Measured[names[i]+"_thr"] = mean
		}
		tab.Note("the strict Rrtp=Rv pacer (as §3.3 describes WebRTC) leaves transient backlog undrained; the Eq. 7 loop is what keeps the pipeline live")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}

// AblationHold compares the Eq. 6 post-overuse hold durations: without the
// 2-RTT hold the sender applies both its own cut and GCC's delayed cut —
// the double-reduction §4.3.1 warns about.
var AblationHold = Experiment{
	ID:    "abl-hold",
	Title: "Ablation: FBCC 2-RTT rate hold after overuse",
	Paper: "§4.3.1: holding for 2 RTTs prevents consecutive rate reductions on a single overuse event",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("abl-hold", "FBCC hold duration after uplink overuse (campus cell)",
			"hold (RTTs)", "mean throughput", "throughput std", "freeze ratio", "mean PSNR")
		holds := []float64{0.25, 2, 6}
		cfgs := make([]session.Config, len(holds))
		for i, h := range holds {
			cfgs[i] = campus(session.RCFBCC)
			cfgs[i].FBCCHoldRTTs = h
		}
		aggs, err := runBatches(o, cfgs)
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			h := holds[i]
			ts := metrics.Summarize(agg.Throughput)
			tab.Add(trace.F(h, 2), trace.Mbps(ts.Mean), trace.Mbps(ts.Std), trace.Pct(agg.FreezeRatio()), trace.DB(agg.PSNR().Mean))
			rep.Measured[trace.F(h, 2)+"_fr"] = agg.FreezeRatio()
			rep.Measured[trace.F(h, 2)+"_thr"] = ts.Mean
		}
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
