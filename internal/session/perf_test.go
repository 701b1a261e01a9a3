package session

import (
	"testing"
	"time"

	"poi360/internal/metrics"
)

// summaryResult builds a Result with synthetic samples in every series
// a summary reads.
func summaryResult() *Result {
	r := &Result{}
	for i := 0; i < 2000; i++ {
		d := time.Duration(100+((i*37)%500)) * time.Millisecond
		r.FrameDelays = append(r.FrameDelays, d)
		r.ROIPSNRs = append(r.ROIPSNRs, 20+float64((i*13)%20))
	}
	for i := 0; i < 60; i++ {
		r.Throughput = append(r.Throughput, float64(1_000_000+i*10_000))
	}
	return r
}

// TestSummariesMatchSummarize pins each Result summary to metrics.Summarize
// of its sample slice (delays in milliseconds), also after more samples
// are appended to a result already read.
func TestSummariesMatchSummarize(t *testing.T) {
	r := summaryResult()
	check := func(when string) {
		t.Helper()
		ms := make([]float64, len(r.FrameDelays))
		for i, d := range r.FrameDelays {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		if got, want := r.DelaySummary(), metrics.Summarize(ms); got != want {
			t.Fatalf("%s: DelaySummary %+v, want %+v", when, got, want)
		}
		if got, want := r.PSNRSummary(), metrics.Summarize(r.ROIPSNRs); got != want {
			t.Fatalf("%s: PSNRSummary %+v, want %+v", when, got, want)
		}
		if got, want := r.ThroughputSummary(), metrics.Summarize(r.Throughput); got != want {
			t.Fatalf("%s: ThroughputSummary %+v, want %+v", when, got, want)
		}
	}
	check("settled")
	r.FrameDelays = append(r.FrameDelays, 5*time.Second)
	r.ROIPSNRs = append(r.ROIPSNRs, 55)
	r.Throughput = append(r.Throughput, 9e6)
	check("after append")
	if d := r.DelaySummary(); d.N != 2001 || d.Max != 5000 {
		t.Fatalf("DelaySummary after append: N %d, Max %v ms; want 2001, 5000", d.N, d.Max)
	}
}
