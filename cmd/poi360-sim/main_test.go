package main

import (
	"bytes"
	"encoding/csv"
	"slices"
	"testing"
	"time"

	"poi360"
)

// TestWriteSeries runs a short session and writes each -series: a header
// row, then exactly one row per sample of the series it names.
func TestWriteSeries(t *testing.T) {
	res, err := poi360.RunSession(poi360.SessionConfig{
		Duration: 5 * time.Second, Seed: 1, RC: poi360.RCFBCC, Cell: poi360.CellCampus,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		header  []string
		samples int
	}{
		{"rates", []string{"t_s", "rv_bps", "rrtp_bps", "mode"}, len(res.VideoRate)},
		{"frames", []string{"t_s", "delay_ms", "roi_psnr_db", "roi_level"}, len(res.ROILevels)},
		{"diag", []string{"t_s", "buffer_bytes", "tbs_bps"}, len(res.Diag)},
		{"mismatch", []string{"t_s", "m_s"}, len(res.Mismatch)},
	} {
		if tc.samples == 0 {
			t.Fatalf("%s: the session recorded no samples", tc.name)
		}
		var out bytes.Buffer
		if err := writeSeries(&out, tc.name, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rows, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatalf("%s: output is not CSV: %v", tc.name, err)
		}
		if !slices.Equal(rows[0], tc.header) {
			t.Fatalf("%s: header %q, want %q", tc.name, rows[0], tc.header)
		}
		if got := len(rows) - 1; got != tc.samples {
			t.Fatalf("%s: %d rows, want one per sample (%d)", tc.name, got, tc.samples)
		}
	}
}
