package experiments

import (
	"poi360/internal/faults"
	"poi360/internal/metrics"
	"poi360/internal/session"
	"poi360/internal/trace"
)

// FaultsTable evaluates FBCC's graceful-degradation paths under scripted
// disturbances: for every canned fault scenario it runs FBCC with the
// diag-staleness watchdog armed (this repo's degradation design) and with
// the watchdog disabled (the paper's prototype, which trusts the 40 ms diag
// feed blindly), plus a clean-feed baseline row. Disturbance timelines are
// deterministic scripts on the simulation clock, so rows are byte-identical
// at any worker count — the PR 1 engine invariant extends to faulted runs.
var FaultsTable = Experiment{
	ID:    "faults",
	Title: "Fault injection: FBCC graceful degradation under disturbance scripts",
	Paper: "§4.3.1 requires FBCC to \"handle congestion elsewhere\" by degrading to the embedded GCC; the paper never injects faults — this table does, deterministically",
	Run: func(o Options) (*Report, error) {
		rep := newReport()
		tab := trace.New("faults", "Scripted disturbances, campus cell: FBCC with vs without the diag-staleness watchdog",
			"scenario", "watchdog", "freeze ratio", "mean PSNR", "mean thrpt", "degr/sess", "stale fb/sess", "diag lost/sess")

		// Collect every (scenario, watchdog) row first, run them all through
		// one shared worker pool, then build the table in row order.
		type row struct {
			scenario, label string
		}
		var (
			rows []row
			cfgs []session.Config
		)
		addRow := func(scenario, label string, watchdog int, script faults.Script) {
			rows = append(rows, row{scenario, label})
			cfg := campus(session.RCFBCC)
			cfg.Faults, cfg.FBCCWatchdogReports = script, watchdog
			cfgs = append(cfgs, cfg)
		}

		// Clean baseline: no disturbances, watchdog armed (it must be
		// inert on a healthy feed).
		addRow("none", "on", 0, faults.Script{})
		for _, name := range faults.ScenarioNames() {
			script, err := faults.MakeScenario(name, o.sessionTime())
			if err != nil {
				return nil, err
			}
			addRow(name, "on", 0, script)
			addRow(name, "off", -1, script)
		}
		aggs, err := runBatches(o, cfgs)
		if err != nil {
			return nil, err
		}
		for i, agg := range aggs {
			scenario, label := rows[i].scenario, rows[i].label
			sessions := float64(agg.Sessions)
			tab.Add(scenario, label,
				trace.Pct(agg.FreezeRatio()),
				trace.DB(agg.PSNR().Mean),
				trace.Mbps(metrics.Summarize(agg.Throughput).Mean),
				trace.F(float64(agg.Degradations)/sessions, 1),
				trace.F(float64(agg.StaleFeedback)/sessions, 1),
				trace.F(float64(agg.DiagStalled)/sessions, 1))
			key := scenario + "/" + label
			rep.Measured[key+"_fr"] = agg.FreezeRatio()
			rep.Measured[key+"_psnr"] = agg.PSNR().Mean
			rep.Measured[key+"_degr"] = float64(agg.Degradations) / sessions
			rep.Measured[key+"_stale"] = float64(agg.StaleFeedback) / sessions
		}
		tab.Note("watchdog: no diag report for 5×40 ms → unpin from Rphy, fall back to GCC, reset Eq. 3/4/7 state; 'off' reproduces the paper's prototype")
		rep.Tables = append(rep.Tables, tab)
		return rep, nil
	},
}
