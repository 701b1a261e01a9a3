// Quickstart: run one POI360 telephony session with the full system
// (adaptive spatial compression + FBCC) over a simulated LTE uplink and
// print what the viewer experienced.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"poi360"
)

func main() {
	cfg := poi360.SessionConfig{
		Duration: 60 * time.Second,
		Network:  poi360.Cellular,
		Cell:     poi360.CellCampus, // ~2.2 Mbps uplink, the paper's cited median
		Scheme:   poi360.SchemeAdaptive,
		RC:       poi360.RCFBCC,
		Seed:     1,
	}
	cfg.User, _ = poi360.UserByName("typical")

	fmt.Println("Running a 60 s POI360 session (adaptive compression + FBCC) ...")
	res, err := poi360.RunSession(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(poi360.Summary(res))

	pdf := res.MOSPDF()
	fmt.Println("\nViewer-perceived quality (Table 1 MOS bands):")
	for band := poi360.MOSBad; band <= poi360.MOSExcellent; band++ {
		bar := ""
		for i := 0; i < int(pdf[band]*50); i++ {
			bar += "#"
		}
		fmt.Printf("  %-9s %5.1f%% %s\n", band, 100*pdf[band], bar)
	}

	d := res.DelaySummary()
	fmt.Printf("\nFrame delay: median %.0f ms, P90 %.0f ms (freeze threshold 600 ms)\n", d.Median, d.P90)
	fmt.Printf("Raw 4K stream is %.2f Mbps; the ROI-compressed stream averaged %.2f Mbps (%.0f%% reduction).\n",
		poi360.RawVideoBitsPerSec/1e6,
		res.ThroughputSummary().Mean/1e6,
		100*(1-res.ThroughputSummary().Mean/poi360.RawVideoBitsPerSec))
}
