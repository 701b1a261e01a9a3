package experiments

import (
	"strings"
	"testing"
	"time"
)

// quickOpts runs the smallest meaningful scale.
func quickOpts() Options {
	return Options{Quick: true, Users: 3, Repeats: 1, SessionTime: 75 * time.Second}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig5", "fig6", "table1", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16a", "fig16b", "fig17ab", "fig17cd", "fig17ef",
		"abl-modes", "abl-k", "abl-rtp", "abl-hold", "ext-predict", "ext-edge",
		"multiuser", "network"} {
		if !ids[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig5")
	if err != nil || e.ID != "fig5" {
		t.Fatalf("ByID: %v %v", e.ID, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig05Shape(t *testing.T) {
	rep, err := Fig05.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Linear region below the knee, saturation above.
	low := rep.Measured["2KB"]
	mid := rep.Measured["6KB"]
	sat1 := rep.Measured["12KB"]
	sat2 := rep.Measured["20KB"]
	if !(low < mid && mid < sat1) {
		t.Fatalf("fig5 not increasing below knee: %v %v %v", low, mid, sat1)
	}
	if diff := (sat2 - sat1) / sat1; diff > 0.12 || diff < -0.12 {
		t.Fatalf("fig5 not saturating: 12KB=%v 20KB=%v", sat1, sat2)
	}
	if len(rep.Series) == 0 || rep.Series[0].Len() < 10 {
		t.Fatal("fig5 series missing")
	}
}

func TestTable1AllCorrect(t *testing.T) {
	rep, err := Table1.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for band, ok := range rep.Measured {
		if ok != 1 {
			t.Fatalf("MOS band %s mapped wrong", band)
		}
	}
}

func TestFig06LowUsage(t *testing.T) {
	rep, err := Fig06.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// GCC must leave the buffer in the low-usage region a nontrivial
	// fraction of the time (the §3.3 underutilization motivation).
	if rep.Measured["lowUsage"] < 0.15 {
		t.Fatalf("GCC low-usage fraction %v implausibly small", rep.Measured["lowUsage"])
	}
}

func TestFig11Ordering(t *testing.T) {
	rep, err := Fig11.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	poi := rep.Measured["cellular_POI360_psnr"]
	conduit := rep.Measured["cellular_Conduit_psnr"]
	pyramid := rep.Measured["cellular_Pyramid_psnr"]
	if !(poi > conduit && poi > pyramid) {
		t.Fatalf("cellular PSNR ordering broken: POI360 %v Conduit %v Pyramid %v", poi, conduit, pyramid)
	}
	if poi-conduit < 3 {
		t.Fatalf("POI360's cellular margin over Conduit too small: %v vs %v", poi, conduit)
	}
	wlPoi := rep.Measured["wireline_POI360_psnr"]
	if wlPoi < 35 {
		t.Fatalf("wireline POI360 PSNR %v too low", wlPoi)
	}
}

func TestFig12ConduitLeastStable(t *testing.T) {
	rep, err := Fig12.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	poi := rep.Measured["cellular_POI360_stab"]
	conduit := rep.Measured["cellular_Conduit_stab"]
	if conduit < 3*poi {
		t.Fatalf("Conduit stability %v should be ≫ POI360 %v", conduit, poi)
	}
}

func TestFig14FreezeOrdering(t *testing.T) {
	rep, err := Fig14.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	poi := rep.Measured["cellular_POI360_fr"]
	pyramid := rep.Measured["cellular_Pyramid_fr"]
	if pyramid <= poi {
		t.Fatalf("Pyramid freeze %v should exceed POI360 %v", pyramid, poi)
	}
	for _, k := range []string{"wireline_POI360_fr", "wireline_Conduit_fr", "wireline_Pyramid_fr"} {
		if rep.Measured[k] > 0.02 {
			t.Fatalf("%s = %v, wireline should be <2%%", k, rep.Measured[k])
		}
	}
}

func TestFig16FBCCBeatsGCC(t *testing.T) {
	rep, err := Fig16a.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured["FBCC_fr"] > rep.Measured["GCC_fr"]+1e-9 {
		t.Fatalf("FBCC freeze %v should not exceed GCC %v",
			rep.Measured["FBCC_fr"], rep.Measured["GCC_fr"])
	}
	// Mean throughput within 30% of each other (paper: nearly identical).
	g, f := rep.Measured["GCC_thr"], rep.Measured["FBCC_thr"]
	if g <= 0 || f <= 0 {
		t.Fatal("throughput missing")
	}
	ratio := f / g
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("throughput ratio %v outside tolerance", ratio)
	}
}

func TestFig15BufferContrast(t *testing.T) {
	rep, err := Fig15.Run(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured["FBCC_medianKB"] <= rep.Measured["GCC_medianKB"] {
		t.Fatalf("FBCC median buffer %v should exceed GCC %v (sweet spot)",
			rep.Measured["FBCC_medianKB"], rep.Measured["GCC_medianKB"])
	}
}

func TestFig17TablesRender(t *testing.T) {
	o := quickOpts()
	o.Users = 1
	for _, e := range []Experiment{Fig17ab, Fig17cd, Fig17ef} {
		rep, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tables) != 2 {
			t.Fatalf("%s tables = %d", e.ID, len(rep.Tables))
		}
		out := rep.Tables[0].String()
		if !strings.Contains(out, "%") {
			t.Fatalf("%s table lacks percentages:\n%s", e.ID, out)
		}
	}
}

func TestFig17cdQualityFollowsRSS(t *testing.T) {
	o := quickOpts()
	rep, err := Fig17cd.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	weak := rep.Measured["weak (-115 dBm garage)_psnr"]
	strong := rep.Measured["strong (-73 dBm open)_psnr"]
	if weak >= strong {
		t.Fatalf("weak-signal PSNR %v should be below strong %v", weak, strong)
	}
}

func TestAblationsRun(t *testing.T) {
	o := quickOpts()
	o.Users = 1
	for _, e := range []Experiment{AblationNoModeSwitch, AblationFBCCK, AblationNoRTPLoop, AblationHold} {
		rep, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 2 {
			t.Fatalf("%s produced no comparison rows", e.ID)
		}
	}
}

func TestAblationRTPLoopRaisesBuffer(t *testing.T) {
	o := quickOpts()
	o.Users = 1
	rep, err := AblationNoRTPLoop.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured["full FBCC_medianKB"] < rep.Measured["no Eq. 7 loop_medianKB"] {
		t.Fatalf("Eq. 7 loop should raise the buffer level: %v vs %v",
			rep.Measured["full FBCC_medianKB"], rep.Measured["no Eq. 7 loop_medianKB"])
	}
}

func TestExtensionEdgeRelayShortensMismatch(t *testing.T) {
	o := quickOpts()
	o.Users = 2
	rep, err := ExtEdgeRelay.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured["edge relay_m"] >= rep.Measured["internet core_m"] {
		t.Fatalf("edge relay mismatch %v should be below internet core %v",
			rep.Measured["edge relay_m"], rep.Measured["internet core_m"])
	}
}

func TestExtensionPredictionShavesMismatchOnly(t *testing.T) {
	o := quickOpts()
	o.Users = 2
	rep, err := ExtPrediction.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// The §8 claim: prediction reduces M somewhat…
	if rep.Measured["with prediction_m"] >= rep.Measured["no prediction_m"] {
		t.Fatalf("prediction should reduce M: %v vs %v",
			rep.Measured["with prediction_m"], rep.Measured["no prediction_m"])
	}
	// …but its horizon is too short to transform quality (±1.5 dB band).
	d := rep.Measured["with prediction_psnr"] - rep.Measured["no prediction_psnr"]
	if d > 1.5 || d < -1.5 {
		t.Fatalf("prediction moved PSNR by %v dB — horizon should bound the effect", d)
	}
}

// TestNetworkCityTable runs the quick city grid: the static row must be
// handover-free, the mobility rows must show emergent handovers with
// watchdog recoveries, and the rendered table must carry every row.
func TestNetworkCityTable(t *testing.T) {
	// Deliberately not quickOpts(): its SessionTime is sized for single
	// sessions; city runs use their own quick duration.
	rep, err := Network.Run(Options{Quick: true, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Measured["c4_u16_dstatic_ho_per_ue"]; got != 0 {
		t.Fatalf("static city shows %.2f handovers per UE", got)
	}
	for _, key := range []string{"c4_u16_d1.5s", "c9_u36_d1s"} {
		if got := rep.Measured[key+"_ho_per_ue"]; got <= 0 {
			t.Fatalf("%s: no emergent handovers (%.2f per UE)", key, got)
		}
		if got := rep.Measured[key+"_recoveries"]; got <= 0 {
			t.Fatalf("%s: watchdog never recovered", key)
		}
		if got := rep.Measured[key+"_outage_ms"]; got < 250 {
			t.Fatalf("%s: mean outage %.0f ms below the handover floor", key, got)
		}
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("%d tables, want 1", len(rep.Tables))
	}
	out := rep.Tables[0].String()
	for _, want := range []string{"static", "1.5s", "wdog"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// cdfSeries keeps every step-th CDF point and ends on (max, 1) exactly
// once, whether or not the stride lands on the last sample.
func TestCDFSeriesEndsOnceOnMax(t *testing.T) {
	for _, n := range []int{1, 3, 100, 200, 201, 599, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64((i*7919)%n) + 0.5 // a permutation of distinct values
		}
		s := cdfSeries("x", samples)
		if len(s.X) == 0 || len(s.X) > 201 {
			t.Fatalf("n=%d: %d points, want 1..201", n, len(s.X))
		}
		for i := 1; i < len(s.X); i++ {
			if s.X[i] < s.X[i-1] {
				t.Fatalf("n=%d: X decreases at point %d: %v < %v", n, i, s.X[i], s.X[i-1])
			}
		}
		max := float64(n-1) + 0.5
		ends := 0
		for i := range s.X {
			if s.X[i] == max && s.Y[i] == 1 {
				ends++
			}
		}
		last := len(s.X) - 1
		if ends != 1 || s.X[last] != max || s.Y[last] != 1 {
			t.Fatalf("n=%d: final point (%v, %v), (max, 1) appears %d times, want once at the end",
				n, s.X[last], s.Y[last], ends)
		}
	}
}
