package obs_test

// Acceptance tests: the bus traced against real sessions. These live in an
// external test package so internal/obs itself never imports the
// simulation layers (the import arrow points session → obs, not back).

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"poi360/internal/lte"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/session"
)

// busyFBCC is the acceptance workload: POI360 over FBCC on the paper's
// busy campus-at-noon cell, long enough past warmup for the uplink to
// saturate and Eq. 3 to fire.
func busyFBCC(d time.Duration) session.Config {
	return session.Config{
		Duration: d,
		Network:  session.Cellular,
		Cell:     lte.ProfileBusy,
		Scheme:   session.SchemeAdaptive,
		RC:       session.RCFBCC,
		Seed:     1,
	}
}

// TestEpisodeSemanticsOnCellBusy is the analyzer's ground-truth check: on
// CellBusy every reconstructed episode must carry an Eq. 3 trigger (streak
// of K=10 rising reports, buffer above the long-term average Γ and above
// the congestion gate) and, when cleanly released, a hold of 2 RTT
// honored to the next 40 ms diag report (Eqs. 5–6).
func TestEpisodeSemanticsOnCellBusy(t *testing.T) {
	bus := obs.NewBus()
	cfg := busyFBCC(150 * time.Second)
	cfg.Obs = bus.Probe(0)
	if _, err := session.Run(cfg); err != nil {
		t.Fatal(err)
	}

	const (
		k                   = 10        // Eq. 3 K (paper default)
		minCongestionBuffer = 10 * 1024 // DefaultFBCCConfig gate
	)
	hold := 2 * netsim.CellularPath.NominalRTT() // Eq. 6: a 2-RTT hold
	diag := lte.DefaultDiagPeriod

	// Every raw trigger event satisfies Eq. 3.
	var triggers int
	for _, e := range bus.Events() {
		if e.Kind != obs.FBCCTrigger {
			continue
		}
		triggers++
		if e.C < k {
			t.Fatalf("trigger at %v with streak %g < K=%d", e.At, e.C, k)
		}
		if e.A <= e.B {
			t.Fatalf("trigger at %v with buffer %g ≤ Γ %g", e.At, e.A, e.B)
		}
		if e.A < minCongestionBuffer {
			t.Fatalf("trigger at %v below the congestion gate: %g", e.At, e.A)
		}
	}
	if triggers == 0 {
		t.Fatalf("no Eq. 3 triggers on CellBusy over %v — the acceptance workload went quiet", cfg.Duration)
	}

	eps := obs.Episodes(bus.Events())
	if len(eps) == 0 {
		t.Fatalf("%d triggers produced no episodes", triggers)
	}
	for i, e := range eps {
		if e.Streak < k || e.BufferBytes <= e.Gamma || e.BufferBytes < minCongestionBuffer {
			t.Fatalf("episode %d trigger violates Eq. 3: %+v", i, e)
		}
		if e.RphyBps <= 0 {
			t.Fatalf("episode %d pinned to a non-positive Rphy: %+v", i, e)
		}
		if got := time.Duration(e.HoldS * float64(time.Second)); got < hold-time.Millisecond || got > hold+time.Millisecond {
			t.Fatalf("episode %d scheduled hold %v, want 2 RTT = %v", i, got, hold)
		}
		if e.Complete && !e.Aborted {
			// The release lands on the first diag report at or after the
			// hold expiry; allow a couple of report periods of quantization.
			held := e.Held()
			if held < hold || held > hold+2*diag {
				t.Fatalf("episode %d held %v, want within [%v, %v]", i, held, hold, hold+2*diag)
			}
		}
	}

	st := obs.SummarizeEpisodes(eps)
	if st.Count != len(eps) || st.Triggers < triggers {
		t.Fatalf("summary inconsistent with stream: %+v vs %d episodes / %d triggers", st, len(eps), triggers)
	}
}

// TestObsDoesNotChangeTrajectory is the determinism contract: the same
// session with and without a bus produces deeply identical results, and
// two traced runs byte-identical JSONL whose every line parses with the
// schema keys.
func TestObsDoesNotChangeTrajectory(t *testing.T) {
	run := func(bus *obs.Bus) (*session.Result, string) {
		cfg := busyFBCC(40 * time.Second)
		cfg.Obs = bus.Probe(0)
		res, err := session.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The configs differ only in the probe pointer; null it before the
		// deep comparison so the measurement payloads carry the test.
		res.Config.Obs = nil
		var out []byte
		if bus != nil {
			for _, e := range bus.Events() {
				out = append(obs.AppendEventJSON(out, &e), '\n')
			}
		}
		return res, string(out)
	}
	plain, _ := run(nil)
	traced, a := run(obs.NewBus())
	if _, b := run(obs.NewBus()); a == "" || a != b {
		t.Fatalf("telemetry stream is empty (%d bytes) or not deterministic", len(a))
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("observability changed the session trajectory")
	}
	for i, line := range strings.Split(strings.TrimRight(a, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil || m["t"] == nil || m["kind"] == nil || m["sub"] == nil {
			t.Fatalf("line %d is not JSON with t, kind and sub (%v): %s", i, err, line)
		}
	}
}

// TestSharedCellObs: a shared-cell scenario multiplexes every session onto
// one bus — session i on sub-stream i, cell-level fault windows on -1 —
// and wiring the bus does not perturb the scenario.
func TestSharedCellObs(t *testing.T) {
	mc := func(bus *obs.Bus) session.MultiConfig {
		m := session.MultiConfig{
			Duration: 20 * time.Second,
			Cell:     lte.ProfileCampus,
			Seed:     7,
			Obs:      bus,
		}
		for i := 0; i < 3; i++ {
			m.Sessions = append(m.Sessions, session.Config{
				Scheme: session.SchemeAdaptive,
				RC:     session.RCFBCC,
			})
		}
		return m
	}
	plain, err := session.RunShared(mc(nil))
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	traced, err := session.RunShared(mc(bus))
	if err != nil {
		t.Fatal(err)
	}
	if bus.Len() == 0 {
		t.Fatalf("shared-cell scenario emitted nothing")
	}
	subs := map[int32]bool{}
	for _, e := range bus.Events() {
		if e.Sub < 0 || e.Sub > 2 {
			t.Fatalf("unexpected sub-stream %d (no cell faults scripted)", e.Sub)
		}
		subs[e.Sub] = true
	}
	for i := int32(0); i < 3; i++ {
		if !subs[i] {
			t.Fatalf("session %d emitted nothing", i)
		}
	}
	if len(plain) != len(traced) {
		t.Fatalf("result counts differ")
	}
	for i := range plain {
		plain[i].Config.Obs = nil
		traced[i].Config.Obs = nil
		if !reflect.DeepEqual(plain[i], traced[i]) {
			t.Fatalf("observability changed shared-cell session %d", i)
		}
	}
}
