// Package seeds is the single source of per-component randomness: the
// seed derivations below and SplitMix, the one generator every stream
// draws from.
//
// Every stream in the simulator ultimately derives from one session (or
// batch) base seed. Before this package, components offset the base by
// small ad-hoc constants (`seed+1`, `+3`, `+7`, `+101`, `+202`), which is
// a collision class: two sessions whose base seeds differ by one of those
// constants share an entire component RNG stream (session A's video
// source replays session B's head motion, and so on). Both derivation
// functions here pass the combined word through the SplitMix64 finalizer
// (Steele et al., "Fast Splittable Pseudorandom Number Generators",
// OOPSLA'14), a bijection on 64-bit words with full avalanche, so nearby
// bases and nearby coordinates land on decorrelated seeds and, for a
// fixed base, distinct coordinates can never collide.
package seeds

// mix is the SplitMix64 finalizer with the golden-gamma pre-increment
// (keeping base 0 non-degenerate). It is a bijection on uint64.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Derive maps a base seed and a non-negative (lane, step) coordinate —
// e.g. the (user, repeat) grid of an experiment batch, or the UE index of
// a shared cell — to a per-session seed that cannot collide with any
// other coordinate under the same base. The coordinate is packed
// injectively (lane in the high 32 bits, step in the low 32 bits) and
// XORed with the base before finalization.
//
// lane and step must fit in uint32; they are truncated otherwise.
func Derive(base int64, lane, step int) int64 {
	x := uint64(base) ^ (uint64(uint32(lane))<<32 | uint64(uint32(step)))
	return int64(mix(x))
}

// Grid maps a base seed and a non-negative (cell, ue, repeat) coordinate
// to a per-entity seed that cannot collide with any other coordinate
// under the same base. The multi-cell network layer needs a third axis:
// deriving per-cell streams by offsetting the user index of Derive
// (`Derive(base, cell*1000+ue, repeat)`-style) is exactly the additive
// collision class the PR 1 seed unification removed — two (cell, ue)
// pairs whose offset sums coincide would share every component stream.
//
// Each coordinate is masked to 21 bits and packed into disjoint bit
// fields (cell in bits 42–62, ue in bits 21–41, repeat in bits 0–20), so
// the packing is injective for coordinates below 2²¹ (≈2.1 M cells ×
// 2.1 M UEs × 2.1 M repeats — far beyond the city-scale grid); the packed
// word is XORed with the base and finalized like Derive. Coordinates at
// or above 2²¹ are truncated.
//
// Grid shares Derive's finalizer but not its input space: the packed word
// is XORed with a domain tag whose top bit is set, which no Grid packing
// (≤ bit 62) and no realistic Derive packing (bit 63 needs lane ≥ 2³¹)
// can produce — so Grid(base, 0, 0, 0) ≠ Derive(base, 0, 0) by
// construction, not by accident. Component streams still come from Stream
// on top of the Grid seed, e.g. Stream(Grid(base, c, u, r), "lte").
func Grid(base int64, cell, ue, repeat int) int64 {
	const (
		mask21  = 1<<21 - 1
		gridTag = 0xC3A5C85C97CB3127 // top bit set: disjoint from Derive's packing
	)
	packed := uint64(cell&mask21)<<42 | uint64(ue&mask21)<<21 | uint64(repeat&mask21)
	return int64(mix(uint64(base) ^ gridTag ^ packed))
}

// Stream maps a base seed and a named component stream — "video",
// "headmotion", "lte", "core", "rev", … — to an independent seed for that
// component's RNG. The tag is hashed with FNV-1a into a 64-bit word that
// is XORed with the base, so streams are decoupled from the (lane, step)
// coordinate space of Derive: no pair of (tag, coordinate) choices
// reduces to the same derivation input except by 64-bit accident.
// Distinct tags therefore give independent streams under the same base,
// and the same tag gives decorrelated streams under distinct bases.
func Stream(base int64, tag string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= prime64
	}
	return int64(mix(uint64(base) ^ h))
}
