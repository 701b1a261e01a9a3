// Package metrics implements POI360's evaluation metrics: the PSNR-to-MOS
// mapping of Table 1, empirical CDFs and MOS PDFs, the 2-second sliding-
// window compression-level stability metric (Fig. 12), the video freeze
// ratio (frames delayed beyond 600 ms, §6.1.1), and streaming statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// MOS is the Mean Opinion Score band of a video frame.
type MOS int

// MOS bands in increasing quality order.
const (
	Bad MOS = iota
	Poor
	Fair
	Good
	Excellent
)

var mosNames = [...]string{"Bad", "Poor", "Fair", "Good", "Excellent"}

// String returns the band name used in the paper's figures.
func (m MOS) String() string {
	if m < Bad || m > Excellent {
		return fmt.Sprintf("MOS(%d)", int(m))
	}
	return mosNames[m]
}

// MOSForPSNR maps a frame PSNR in dB to its MOS band per Table 1:
// >37 Excellent, 31–37 Good, 25–31 Fair, 20–25 Poor, <20 Bad.
func MOSForPSNR(psnr float64) MOS {
	switch {
	case psnr > 37:
		return Excellent
	case psnr > 31:
		return Good
	case psnr > 25:
		return Fair
	case psnr >= 20:
		return Poor
	default:
		return Bad
	}
}

// MOSPDF returns the fraction of frames in each MOS band (Fig. 11c/d,
// 16b, 17b/d/f). The result sums to 1 for non-empty input.
func MOSPDF(psnrs []float64) [5]float64 {
	var pdf [5]float64
	if len(psnrs) == 0 {
		return pdf
	}
	for _, p := range psnrs {
		pdf[MOSForPSNR(p)]++
	}
	for i := range pdf {
		pdf[i] /= float64(len(psnrs))
	}
	return pdf
}

// FreezeThreshold is the frame delay beyond which the paper counts a frame
// as frozen (§6.1.1).
const FreezeThreshold = 600 * time.Millisecond

// Summary holds the order statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P10, P25      float64
	Median        float64
	P75, P90, P99 float64
}

// Summarize computes a Summary. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
	}
	mean := sum / float64(len(s))
	for _, x := range s {
		sq += (x - mean) * (x - mean)
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Std:    math.Sqrt(sq / float64(len(s))),
		Min:    s[0],
		Max:    s[len(s)-1],
		P10:    Percentile(s, 0.10),
		P25:    Percentile(s, 0.25),
		Median: Percentile(s, 0.50),
		P75:    Percentile(s, 0.75),
		P90:    Percentile(s, 0.90),
		P99:    Percentile(s, 0.99),
	}
}

// LazySummary memoizes Summarize for a sample slice that grows by append
// and is then read repeatedly — the Result pattern: record during a run,
// summarize many times while rendering tables. The cache is keyed by the
// slice length, so appending more samples transparently recomputes on the
// next read, while repeated reads of a settled slice return the cached
// Summary with zero allocations and zero sorting.
//
// Mutating recorded samples in place (same length, different values) after
// a read is NOT detected and yields the stale Summary; that usage is
// unsupported. The zero value is ready to use.
type LazySummary struct {
	n     int // sample count the cached Summary was computed from
	valid bool
	sum   Summary
}

// Of returns Summarize(xs), cached: the copy+sort runs only when xs has
// changed length since the previous call.
func (l *LazySummary) Of(xs []float64) Summary {
	if l.valid && l.n == len(xs) {
		return l.sum
	}
	l.sum = Summarize(xs)
	l.n = len(xs)
	l.valid = true
	return l.sum
}

// Percentile interpolates the p-quantile (p in [0,1]) of an ascending
// sorted slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64 // fraction of samples ≤ X
}

// CDF returns the full empirical CDF of xs (one point per sample, sorted).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(s))}
	}
	return out
}

// CDFAt returns the empirical probability that a sample is ≤ x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// TimedSample pairs a measurement with its virtual timestamp.
type TimedSample struct {
	At time.Duration
	V  float64
}

// WindowStd computes, for every sample, the standard deviation of the
// samples within the trailing window ending at that sample — the paper's
// short-term compression-level variation metric (2 s window, Fig. 12).
func WindowStd(samples []TimedSample, window time.Duration) []float64 {
	out := make([]float64, len(samples))
	start := 0
	for i := range samples {
		for samples[i].At-samples[start].At > window {
			start++
		}
		out[i] = stdOf(samples[start : i+1])
	}
	return out
}

func stdOf(w []TimedSample) float64 {
	if len(w) < 2 {
		return 0
	}
	var sum float64
	for _, s := range w {
		sum += s.V
	}
	mean := sum / float64(len(w))
	var sq float64
	for _, s := range w {
		sq += (s.V - mean) * (s.V - mean)
	}
	return math.Sqrt(sq / float64(len(w)))
}

// Running accumulates a streaming mean (Welford's update). Its zero value
// is ready to use. FBCC uses it for the long-term buffer level Γ.
type Running struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean reports the running mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// JainFairness returns Jain's fairness index (Σx)² / (n·Σx²) of a
// non-negative allocation — 1 when every user gets the same share, 1/n
// when one user gets everything. It is the standard fairness measure for
// per-UE throughput in a shared cell.
//
// Degenerate-allocation convention: both the empty allocation and the
// all-zero allocation yield 1. During a full-cell outage (or an emergent
// handover storm that empties a cell) "no contenders" and "every
// contender equally starved" are the same physical situation, and an
// asymmetric convention (the old empty→0) made a cell's fairness jump
// from 0 to 1 on the arrival of a single starved UE, skewing per-cell
// aggregates in the network layer. Perfect fairness is the limit Jain's
// index takes for any equal allocation, vacuous ones included.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
