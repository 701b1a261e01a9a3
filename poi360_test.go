package poi360

import (
	"strings"
	"testing"
	"time"
)

// The library surface runs sessions (its summary names the scheme, the
// network, PSNR and freezes), both rate controllers included.
func TestRunSession(t *testing.T) {
	for _, r := range []struct {
		name string
		cfg  SessionConfig
	}{
		{"defaults", SessionConfig{Duration: 15 * time.Second, Seed: 1}},
		{"FBCC", SessionConfig{Duration: 15 * time.Second, Scheme: SchemeAdaptive, RC: RCFBCC, Cell: CellCampus, Seed: 2}},
	} {
		t.Run(r.name, func(t *testing.T) {
			res, err := RunSession(r.cfg)
			if err != nil || res.FramesDelivered == 0 {
				t.Fatalf("%+v: %v, or no frames delivered", r.cfg, err)
			}
			for _, want := range []string{"POI360", "cellular", "PSNR", "freeze"} {
				if s := Summary(res); !strings.Contains(s, want) {
					t.Fatalf("summary missing %q: %s", want, s)
				}
			}
		})
	}
}

// Experiments are registered and run by id (an unknown one errs).
func TestRunExperiment(t *testing.T) {
	t.Run("Registry", func(t *testing.T) {
		if len(Experiments()) < 15 {
			t.Fatalf("only %d experiments registered", len(Experiments()))
		}
	})
	t.Run("Table1", func(t *testing.T) {
		rep, err := RunExperiment("table1", ExperimentOptions{})
		if err != nil || len(rep.Tables) != 1 || !strings.Contains(rep.Tables[0].String(), "Excellent") {
			t.Fatalf("table1: %v, %+v", err, rep)
		}
	})
	t.Run("Unknown", func(t *testing.T) {
		if _, err := RunExperiment("figX", ExperimentOptions{}); err == nil {
			t.Fatal("unknown experiment accepted")
		}
	})
}

// The re-exported mappings, users, profiles and configs are the internal
// packages' own.
func TestSurfaceExposed(t *testing.T) {
	t.Run("MOS", func(t *testing.T) {
		if MOSForPSNR(40) != MOSExcellent || MOSForPSNR(10) != MOSBad {
			t.Fatal("MOS mapping broken")
		}
	})
	t.Run("Users", func(t *testing.T) {
		if u, err := UserByName("scanner"); err != nil || u.Name != "scanner" || len(Users) != 5 {
			t.Fatalf("UserByName: %v %v; %d users", u, err, len(Users))
		}
	})
	t.Run("Profiles", func(t *testing.T) {
		if CellWeak.RSSdBm >= CellStrongIdle.RSSdBm || PathCellular.NominalRTT() <= PathWireline.NominalRTT() {
			t.Fatal("cell or path profiles inverted")
		}
	})
	t.Run("Configs", func(t *testing.T) {
		if DefaultGrid.W != 12 || DefaultGrid.H != 8 || DefaultVideoConfig().FPS != 30 {
			t.Fatal("grid or video config mismatch")
		}
	})
}
