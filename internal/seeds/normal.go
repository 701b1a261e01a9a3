package seeds

import "math"

// Ziggurat sampling of the standard normal (Marsaglia & Tsang 2000),
// specialized to SplitMix: one Uint64 yields both the signed 32-bit
// candidate and the 7-bit layer index, so the common case costs one draw
// and one multiply. The simulator draws a normal variate for every
// granted TBS and every core-path packet jitter — millions per run.
//
// The tables are generated at init from the standard recurrence rather
// than embedded: layer 127 is pinned at x=R with the tail area folded in
// (V = area of each layer), and x_{i-1} = f⁻¹(V/x_i + f(x_i)) walks the
// layers down to the cap. The draws are not math/rand's (different layer
// count and bit budget); the seeds tests hold both samplers to the same
// distribution.
const (
	zigR = 3.442619855899 // rightmost layer edge
	zigV = 9.91256303526217e-3
)

var (
	zigK [128]uint32  // acceptance thresholds on |j|
	zigW [128]float64 // scale: x = j * zigW[i]
	zigF [128]float64 // f(x_i) = exp(-x_i²/2)
)

func init() {
	const m = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigK[0] = uint32(dn / q * m)
	zigK[1] = 0
	zigW[0] = q / m
	zigW[127] = dn / m
	zigF[0] = 1
	zigF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * m)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / m
	}
}

// NormFloat64 returns a standard normal variate from the stream.
func (s *SplitMix) NormFloat64() float64 {
	for {
		u := s.Uint64()
		j := int32(u)         // low 32 bits: signed candidate
		i := (u >> 32) & 0x7F // independent bits: layer index
		x := float64(j) * zigW[i]
		a := uint32(j)
		if j < 0 {
			a = uint32(-j)
		}
		if a < zigK[i] {
			// Inside the layer's rectangle: the overwhelmingly common case.
			return x
		}
		if i == 0 {
			// Tail beyond R: Marsaglia's exponential-rejection tail sample.
			for {
				ex := s.ExpFloat64() / zigR
				ey := s.ExpFloat64()
				if ey+ey >= ex*ex {
					if j > 0 {
						return zigR + ex
					}
					return -(zigR + ex)
				}
			}
		}
		// Wedge: accept against the density between the layer lines.
		if zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}
