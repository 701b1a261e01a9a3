package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"poi360/internal/trace"
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

// claim is a complaint when ok is false, else "".
func claim(ok bool, format string, args ...any) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// TestPaperClaims runs each experiment at quick scale (users as given) and
// holds its measured map to the paper's qualitative claim.
func TestPaperClaims(t *testing.T) {
	type M = map[string]float64
	rows := []struct {
		e     Experiment
		users int
		claim func(m M) string
	}{
		// Linear region below the knee, saturation above.
		{Fig05, 3, func(m M) string {
			low, mid, sat1, sat2 := m["2KB"], m["6KB"], m["12KB"], m["20KB"]
			return claim(low < mid && mid < sat1 && math.Abs(sat2-sat1)/sat1 <= 0.12,
				"fig5 not linear then saturating: 2KB %v 6KB %v 12KB %v 20KB %v", low, mid, sat1, sat2)
		}},
		{Table1, 0, func(m M) string {
			for band, ok := range m {
				if ok != 1 {
					return "MOS band " + band + " mapped wrong"
				}
			}
			return ""
		}},
		// GCC leaves the buffer in the low-usage region a nontrivial
		// fraction of the time (the §3.3 underutilization motivation).
		{Fig06, 3, func(m M) string {
			return claim(m["lowUsage"] >= 0.15, "GCC low-usage fraction %v implausibly small", m["lowUsage"])
		}},
		{Fig11, 3, func(m M) string {
			poi, conduit, pyramid := m["cellular_POI360_psnr"], m["cellular_Conduit_psnr"], m["cellular_Pyramid_psnr"]
			return claim(poi > pyramid && poi-conduit >= 3 && m["wireline_POI360_psnr"] >= 35,
				"PSNR: cellular POI360 %v Conduit %v Pyramid %v (a 3 dB margin), wireline POI360 %v (≥ 35)",
				poi, conduit, pyramid, m["wireline_POI360_psnr"])
		}},
		{Fig12, 3, func(m M) string {
			return claim(m["cellular_Conduit_stab"] >= 3*m["cellular_POI360_stab"],
				"Conduit stability %v should be ≫ POI360 %v", m["cellular_Conduit_stab"], m["cellular_POI360_stab"])
		}},
		// Pyramid freezes more than POI360 on cellular; wireline all < 2 %.
		{Fig14, 3, func(m M) string {
			return claim(m["cellular_Pyramid_fr"] > m["cellular_POI360_fr"] && max(m["wireline_POI360_fr"],
				m["wireline_Conduit_fr"], m["wireline_Pyramid_fr"]) <= 0.02, "freeze ratios %v", m)
		}},
		// FBCC freezes no more than GCC at a mean throughput within 30 %
		// (paper: nearly identical).
		{Fig16a, 3, func(m M) string {
			r := m["FBCC_thr"] / m["GCC_thr"]
			return claim(m["FBCC_fr"] <= m["GCC_fr"]+1e-9 && m["GCC_thr"] > 0 && r >= 0.7 && r <= 1.4,
				"FBCC freeze %v vs GCC %v, throughput ratio %v", m["FBCC_fr"], m["GCC_fr"], r)
		}},
		{Fig15, 3, func(m M) string {
			return claim(m["FBCC_medianKB"] > m["GCC_medianKB"], "FBCC median buffer %v should exceed GCC %v (sweet spot)",
				m["FBCC_medianKB"], m["GCC_medianKB"])
		}},
		{Fig17cd, 3, func(m M) string {
			weak, strong := m["weak (-115 dBm garage)_psnr"], m["strong (-73 dBm open)_psnr"]
			return claim(weak < strong, "weak-signal PSNR %v should be below strong %v", weak, strong)
		}},
		{AblationNoRTPLoop, 1, func(m M) string {
			return claim(m["full FBCC_medianKB"] >= m["no Eq. 7 loop_medianKB"], "Eq. 7 loop should raise the buffer level: %v vs %v",
				m["full FBCC_medianKB"], m["no Eq. 7 loop_medianKB"])
		}},
		{ExtEdgeRelay, 2, func(m M) string {
			return claim(m["edge relay_m"] < m["internet core_m"], "edge relay mismatch %v should be below internet core %v",
				m["edge relay_m"], m["internet core_m"])
		}},
		// The §8 claim: prediction reduces M somewhat, but its horizon is
		// too short to transform quality (±1.5 dB band).
		{ExtPrediction, 2, func(m M) string {
			d := m["with prediction_psnr"] - m["no prediction_psnr"]
			return claim(m["with prediction_m"] < m["no prediction_m"] && math.Abs(d) <= 1.5,
				"prediction: M %v vs %v, PSNR moved %v dB", m["with prediction_m"], m["no prediction_m"], d)
		}},
	}
	for _, r := range rows {
		t.Run(r.e.ID, func(t *testing.T) {
			o := quickOpts()
			if o.Users = r.users; r.users == 0 {
				o = Options{}
			}
			rep, err := r.e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if msg := r.claim(rep.Measured); msg != "" {
				t.Fatal(msg)
			}
			if r.e.ID == "fig5" && (len(rep.Series) == 0 || rep.Series[0].Len() < 10) {
				t.Fatal("fig5 series missing")
			}
		})
	}
}

// The Fig. 17 experiments render two tables with percentages, and each
// ablation at least two comparison rows.
func TestTablesRender(t *testing.T) {
	o := quickOpts()
	o.Users = 1
	for _, e := range []Experiment{Fig17ab, Fig17cd, Fig17ef, AblationNoModeSwitch, AblationFBCCK, AblationNoRTPLoop, AblationHold} {
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if strings.HasPrefix(e.ID, "abl") {
				if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 2 {
					t.Fatalf("%s produced no comparison rows", e.ID)
				}
			} else if out := rep.Tables[0].String(); len(rep.Tables) != 2 || !strings.Contains(out, "%") {
				t.Fatalf("%s: %d tables, the first lacking percentages:\n%s", e.ID, len(rep.Tables), out)
			}
		})
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

// reportDigest hashes everything a report carries: its tables as printed,
// its series as the CLI's -csv writes them, and its Measured map in key
// order with every value in the shortest form that round-trips.
func reportDigest(t *testing.T, rep *Report) string {
	h := sha256.New()
	for _, tab := range rep.Tables {
		h.Write([]byte(tab.String()))
	}
	if err := trace.WriteSeriesCSV(h, rep.Series...); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(rep.Measured))
	for k := range rep.Measured {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k + "=" + strconv.FormatFloat(rep.Measured[k], 'g', -1, 64) + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExperimentReportsPinned pins the sha256 of every experiment's report
// at a small scale, the experiments' counterpart of the city's
// TestCityFingerprintsPinned: a refactor of the engine, the builders or the
// aggregates must leave every digest as it is. A declared trajectory change
// (DESIGN §18) re-pins them together with the city fingerprints.
func TestExperimentReportsPinned(t *testing.T) {
	want := map[string]string{
		"fig5":        "d2a6cf1557eb9fad09c17d0871526fad2ddca820d08bfc0a00716ee1e9c5a785",
		"fig6":        "94216911da91b7054933ecb11bd7dd2c66b06ecf4dfd62638d06767c2b86b28a",
		"table1":      "890f46091ac4242cbd4d7e7ebf844c3e4c9caa27de19c7bf4d5f3818d81167a5",
		"fig11":       "db55d5fe7687c1abeec38500c2ffb0c01e9decd14b84a290527277773659b420",
		"fig12":       "5ca393f68a889d4e007cf664cc1558c1a8415e1dc441e42fbedde3ea5f80daa0",
		"fig13":       "61583e2727413cacbe6928eede192c10a7ca57c11c5a9e67678d3c234758a050",
		"fig14":       "c1b3874ccd2cb5a0670e1250b4f5d0785be47e965182c95933030a39113f5b6d",
		"fig15":       "5cd1077179687b04283f1aa9e63198d0ee0fad03ed0f3e567230740c7bab5708",
		"fig16a":      "322bd915c7a5cd6987f59f49f2e07ac5e8e16dd3d8cf65588756a8572ebd0dbd",
		"fig16b":      "436197a8ba9081d93d915fd816f031012dda348ec73cfd0b9909968232386a7a",
		"fig17ab":     "c67851c5f3eaec00c425acc3716b5029607d5efa8aab5b6c519ec7bb0a433676",
		"fig17cd":     "e73909b504df78b189ba2c8549177c1ddb1fe1aefee244a599e07ad190b6be78",
		"fig17ef":     "0708218f563bd17f69a8b1d571d0ba67a2c61c7b4c76946aceae15765a28e34f",
		"abl-modes":   "b2ca5449a3be34160cdb73f66d7449be293fcd65388f141089f1b1b9a3654fde",
		"abl-k":       "e0fc3a1c289daf384376bce50b7d85bed94c1e868f464b8da5a3f7ea838386e1",
		"abl-rtp":     "076c706b4c7cc4d706d6eabc8a70a3b13a3981640b6f97c8cb13d25f42333327",
		"abl-hold":    "1757d4042e340fb4ff2b81978f1f30f9f32a654c0f983959d29815314c1dd71d",
		"faults":      "21c16b5cc7f01a6ed7824d26004b565d56d2a5010ecb190de754a8ad8e049f98",
		"multiuser":   "8071660de92f75f7fe2575a71bb1c88b778c8615bdafe0e5af55f4559dc599a4",
		"network":     "5aad22220e46129716f4b83e1dccb73c5ac314b38eecb9736056c0c5f5e35ed3",
		"ext-predict": "4f6b9ee51d2fb42149cceb31d539716667ccbb6375406752a392772bb7cdf358",
		"ext-edge":    "5acff01d975fa369e3dc2a9564b7087b43de4fe397d08141525c7e15ce9cb55f",
	}
	o := Options{Quick: true, SessionTime: 20 * time.Second, Workers: 2}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportDigest(t, rep); got != want[e.ID] {
				t.Errorf("report sha256 %s, want %s", got, want[e.ID])
			}
		})
	}
}
