package seeds

import "math"

// SplitMix is the simulator's one random generator: the SplitMix64
// stream (Steele et al., OOPSLA'14), an 8-byte counter advanced by the
// golden gamma and passed through the same finalizer Derive/Grid/Stream
// use. Every stochastic component — LTE capacity and TBS noise, head
// motion, content and path jitter, city mobility — draws from its own
// *SplitMix, seeded from a Stream/Grid derivation, and calls its methods
// directly. Seeding is one store and the whole state is 8
// bytes, so thousands of per-residency streams cost nothing to create or
// to keep cache-resident.
//
// Bounded integers are drawn as int(Float64()·n): exactly one draw per
// call whatever n is, so a stream's consumption never depends on the
// value being drawn.
type SplitMix struct {
	s uint64
}

// NewSource returns a *SplitMix seeded with seed.
func NewSource(seed int64) *SplitMix {
	return &SplitMix{s: uint64(seed)}
}

// Seed resets the stream. Reseeding is a single store, which is what lets
// a long-lived residency slot reuse one generator across re-attachments.
func (s *SplitMix) Seed(seed int64) { s.s = uint64(seed) }

// Uint64 advances the counter by the golden gamma and finalizes it —
// exactly the mix() bijection, so distinct seeds give decorrelated
// streams for the same reason distinct Grid coordinates do.
func (s *SplitMix) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	x := s.s
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Float64 returns a uniform variate in [0,1) from the stream (53 bits).
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential variate with rate 1, by inverting the
// CDF of one uniform draw.
func (s *SplitMix) ExpFloat64() float64 { return -math.Log(1 - s.Float64()) }
