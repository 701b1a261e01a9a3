package obs

import (
	"math"
	"sort"

	"poi360/internal/trace"
)

// histBuckets is the number of power-of-two buckets; bucket i covers
// values in [2^(i-1), 2^i) for i > 0 (the top bucket is open-ended and
// takes +Inf), bucket 0 covers (-inf, 1) and NaN.
const histBuckets = 48

// Histogram is a fixed-footprint log2 histogram with exact count, sum,
// min and max. The zero value is ready to use; Observe never allocates
// and calls no libm function, so histograms can sit on the event-emit
// path.
type Histogram struct {
	buckets [histBuckets]int64
	n       int64
	sum     float64
	min     float64
	max     float64
}

// Observe folds one sample.
func (h *Histogram) Observe(v float64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// bucketOf reads the bucket off the IEEE-754 exponent: a finite v ≥ 1 is
// 1.m × 2^e with e = biased exponent − 1023, which puts it in
// [2^e, 2^(e+1)) — bucket e+1, exactly, with no logarithm to round.
// +Inf carries the largest exponent and clamps into the top bucket; the
// negated comparison sends NaN (and everything below 1) to bucket 0.
func bucketOf(v float64) int {
	if !(v >= 1) {
		return 0
	}
	b := int(math.Float64bits(v)>>52&0x7ff) - 1023 + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Merge folds another histogram into h. Because sum is a float
// accumulation, merge order affects the exact bytes of derived means —
// deterministic consumers (ShardAgg) must merge shards in a fixed order.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		*h = *o
		return
	}
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// N reports the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean reports the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min reports the exact minimum (0 when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the exact maximum (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile approximates the q-quantile (q in [0,1]) from the log2
// buckets: it walks to the bucket holding the q-th sample and returns the
// bucket's upper bound (clamped to the exact min/max). The ~2× bucket
// resolution is what a fixed-footprint allocation-free histogram buys.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			upper := 1.0 // bucket 0: (-inf, 1)
			if i > 0 {
				upper = math.Pow(2, float64(i))
			}
			return math.Min(math.Max(upper, h.Min()), h.Max())
		}
	}
	return h.Max()
}

// registryTable renders the bus registry deterministically: one row per
// kind that emitted at least once (declaration order), histogram stats
// where the kind has a histogrammed field, then gauges sorted by name.
func registryTable(b *Bus) *trace.Table {
	t := trace.New("obs", "telemetry registry",
		"metric", "count", "mean", "p50", "p90", "max")
	for k := Kind(0); k < NumKinds; k++ {
		if b.counts[k] == 0 {
			continue
		}
		meta := kinds[k]
		if meta.hist < 0 {
			t.Add(meta.name, trace.F(float64(b.counts[k]), 0), "", "", "", "")
			continue
		}
		h := &b.hists[k]
		t.Add(
			meta.name+"."+meta.fields[meta.hist],
			trace.F(float64(b.counts[k]), 0),
			trace.F(h.Mean(), 2),
			trace.F(h.Quantile(0.50), 2),
			trace.F(h.Quantile(0.90), 2),
			trace.F(h.Max(), 2),
		)
	}
	names := make([]string, 0, len(b.gauges))
	for name := range b.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Add("gauge."+name, "", trace.F(b.gauges[name], 3), "", "", "")
	}
	return t
}
