// Package headmotion generates viewer head-orientation traces that drive
// the ROI in a POI360 session. The paper recruits 5 users whose head motion
// steers the region-of-interest; here each user is a seeded stochastic
// process alternating fixations (dwell) and head turns (saccades) with
// dynamics matching the Oculus-reported statistics the paper cites (§8):
// average angular velocity around 60°/s with acceleration bursts up to
// 500°/s², making positions ~120 ms ahead unpredictable.
package headmotion

import (
	"fmt"
	"math"
	"time"

	"poi360/internal/projection"
	"poi360/internal/seeds"
)

// Model yields the viewer's orientation at a virtual time. Implementations
// require At to be called with non-decreasing times.
type Model interface {
	At(t time.Duration) projection.Orientation
}

// Profile parameterizes one simulated user's head-motion behaviour.
type Profile struct {
	Name string
	// Dwell is the mean fixation duration between head turns.
	Dwell time.Duration
	// DwellJitter scales the exponential spread of dwell durations.
	DwellJitter float64
	// MeanAmplitude is the mean angular size of a head turn, degrees.
	MeanAmplitude float64
	// AmplitudeStd is the spread of turn amplitudes, degrees.
	AmplitudeStd float64
	// PeakVelocity is the peak angular velocity of a turn, degrees/second.
	PeakVelocity float64
	// PitchRange limits how far the user looks up/down, degrees.
	PitchRange float64
	// MicroDrift is the slow orientation drift during fixations, deg/s std.
	MicroDrift float64
	// SweepProb is the probability that a movement is a panning sweep —
	// a sustained constant-velocity scan across the panorama — rather
	// than a discrete turn. Sweeps are the worst case for ROI-based
	// compression: the ROI changes continuously for seconds (§4.2's
	// consecutive-switch scenario).
	SweepProb float64
	// SweepVelocity is the typical sweep speed in deg/s.
	SweepVelocity float64
}

// Users are five distinct per-user profiles, mirroring the paper's five
// participants who each watched different content (so their ROI statistics
// differ): from a calm observer to a restless scanner.
var Users = []Profile{
	{Name: "calm", Dwell: 4 * time.Second, DwellJitter: 1.0, MeanAmplitude: 35, AmplitudeStd: 15, PeakVelocity: 90, PitchRange: 30, MicroDrift: 1.0, SweepProb: 0.20, SweepVelocity: 55},
	{Name: "typical", Dwell: 2500 * time.Millisecond, DwellJitter: 1.0, MeanAmplitude: 45, AmplitudeStd: 20, PeakVelocity: 120, PitchRange: 40, MicroDrift: 1.5, SweepProb: 0.35, SweepVelocity: 75},
	{Name: "curious", Dwell: 1800 * time.Millisecond, DwellJitter: 1.2, MeanAmplitude: 60, AmplitudeStd: 25, PeakVelocity: 140, PitchRange: 45, MicroDrift: 2.0, SweepProb: 0.45, SweepVelocity: 90},
	{Name: "restless", Dwell: 1200 * time.Millisecond, DwellJitter: 1.5, MeanAmplitude: 70, AmplitudeStd: 30, PeakVelocity: 170, PitchRange: 50, MicroDrift: 2.5, SweepProb: 0.50, SweepVelocity: 105},
	{Name: "scanner", Dwell: 900 * time.Millisecond, DwellJitter: 1.5, MeanAmplitude: 90, AmplitudeStd: 40, PeakVelocity: 200, PitchRange: 50, MicroDrift: 3.0, SweepProb: 0.60, SweepVelocity: 120},
}

// UserByName returns the profile with the given name.
func UserByName(name string) (Profile, error) {
	for _, p := range Users {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("headmotion: unknown user profile %q", name)
}

// Stochastic is a seeded dwell/turn head-motion process.
type Stochastic struct {
	p   Profile
	rng *seeds.SplitMix

	cur projection.Orientation
	t   time.Duration // time up to which state is advanced

	// Current segment: either dwelling until segEnd, or turning from
	// segStart orientation to target between segBegin and segEnd.
	turning  bool
	sweeping bool
	segBegin time.Duration
	segEnd   time.Duration
	from     projection.Orientation
	target   projection.Orientation
	// Micro-drift rates (deg/s) applied continuously during a dwell.
	driftYaw   float64
	driftPitch float64
	// Sweep velocities (deg/s) during a panning sweep.
	sweepYawVel   float64
	sweepPitchVel float64
}

// NewStochastic creates a head-motion process for profile p and a seed.
func NewStochastic(p Profile, seed int64) *Stochastic {
	s := &Stochastic{
		p:   p,
		rng: seeds.NewSource(seed),
		cur: projection.Orientation{Yaw: 180, Pitch: 0},
	}
	s.scheduleDwell(0)
	return s
}

func (s *Stochastic) scheduleDwell(now time.Duration) {
	d := time.Duration(float64(s.p.Dwell) * (0.3 + s.rng.ExpFloat64()*s.p.DwellJitter*0.7))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	s.turning = false
	s.segBegin = now
	s.segEnd = now + d
	s.from = s.cur
	s.driftYaw = s.rng.NormFloat64() * s.p.MicroDrift
	s.driftPitch = s.rng.NormFloat64() * s.p.MicroDrift * 0.5
}

// dwellAt returns the drifted orientation at elapsed seconds into a dwell.
func (s *Stochastic) dwellAt(elapsedSec float64) projection.Orientation {
	return projection.Orientation{
		Yaw:   projection.NormalizeYaw(s.from.Yaw + s.driftYaw*elapsedSec),
		Pitch: projection.ClampPitch(s.from.Pitch + s.driftPitch*elapsedSec),
	}
}

func (s *Stochastic) scheduleTurn(now time.Duration) {
	if s.rng.Float64() < s.p.SweepProb {
		s.scheduleSweep(now)
		return
	}
	amp := s.p.MeanAmplitude + s.rng.NormFloat64()*s.p.AmplitudeStd
	if amp < 5 {
		amp = 5
	}
	// Random direction; mostly yaw, since humans rotate more than they nod.
	theta := s.rng.Float64() * 2 * math.Pi
	dyaw := amp * math.Cos(theta)
	dpitch := amp * math.Sin(theta) * 0.4
	target := projection.Orientation{
		Yaw:   projection.NormalizeYaw(s.cur.Yaw + dyaw),
		Pitch: math.Max(-s.p.PitchRange, math.Min(s.p.PitchRange, s.cur.Pitch+dpitch)),
	}
	// Smoothstep profile peaks at 1.5× the average velocity, so average
	// velocity = PeakVelocity/1.5.
	dist := projection.AngularDistance(s.cur, target)
	dur := time.Duration(dist / (s.p.PeakVelocity / 1.5) * float64(time.Second))
	if dur < 50*time.Millisecond {
		dur = 50 * time.Millisecond
	}
	s.turning = true
	s.sweeping = false
	s.segBegin = now
	s.segEnd = now + dur
	s.from = s.cur
	s.target = target
}

// scheduleSweep starts a sustained constant-velocity panning scan.
func (s *Stochastic) scheduleSweep(now time.Duration) {
	dur := time.Duration((1 + s.rng.ExpFloat64()*1.5) * float64(time.Second))
	if dur > 5*time.Second {
		dur = 5 * time.Second
	}
	dir := 1.0
	if s.rng.Float64() < 0.5 {
		dir = -1
	}
	s.sweepYawVel = dir * s.p.SweepVelocity * (0.7 + 0.6*s.rng.Float64())
	s.sweepPitchVel = s.rng.NormFloat64() * s.p.SweepVelocity * 0.08
	s.turning = false
	s.sweeping = true
	s.segBegin = now
	s.segEnd = now + dur
	s.from = s.cur
}

// sweepAt returns the orientation at elapsed seconds into a sweep.
func (s *Stochastic) sweepAt(elapsedSec float64) projection.Orientation {
	return projection.Orientation{
		Yaw:   projection.NormalizeYaw(s.from.Yaw + s.sweepYawVel*elapsedSec),
		Pitch: projection.ClampPitch(s.from.Pitch + s.sweepPitchVel*elapsedSec),
	}
}

// smoothstep eases 0→1 with zero velocity at both ends (bounded accel).
func smoothstep(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 1
	}
	return u * u * (3 - 2*u)
}

// shortestYawDelta returns the signed yaw change from a to b in (-180, 180].
// A difference inside (−360, 360) skips math.Mod, which would return it
// unchanged (projection.NormalizeYaw takes the same fast path).
func shortestYawDelta(a, b float64) float64 {
	d := b - a
	if !(d > -360 && d < 360) {
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// At returns the orientation at time t (t must be non-decreasing across
// calls; earlier times return the current state unchanged).
func (s *Stochastic) At(t time.Duration) projection.Orientation {
	for t >= s.segEnd {
		// Finish the segment.
		switch {
		case s.turning:
			s.cur = s.target
			s.scheduleDwell(s.segEnd)
		case s.sweeping:
			s.cur = s.sweepAt(s.segEnd.Seconds() - s.segBegin.Seconds())
			s.sweeping = false
			s.scheduleDwell(s.segEnd)
		default:
			s.cur = s.dwellAt(s.segEnd.Seconds() - s.segBegin.Seconds())
			s.scheduleTurn(s.segEnd)
		}
	}
	if s.sweeping {
		return s.sweepAt(t.Seconds() - s.segBegin.Seconds())
	}
	if !s.turning {
		return s.dwellAt(t.Seconds() - s.segBegin.Seconds())
	}
	u := float64(t-s.segBegin) / float64(s.segEnd-s.segBegin)
	w := smoothstep(u)
	return projection.Orientation{
		Yaw:   projection.NormalizeYaw(s.from.Yaw + shortestYawDelta(s.from.Yaw, s.target.Yaw)*w),
		Pitch: s.from.Pitch + (s.target.Pitch-s.from.Pitch)*w,
	}
}

// Key is a scripted-trace keyframe.
type Key struct {
	At          time.Duration
	Orientation projection.Orientation
}

// Scripted replays a fixed orientation schedule; between keyframes the
// orientation holds (step interpolation), matching how tests want exact,
// predictable ROI switches.
type Scripted struct {
	Keys []Key
}

// At returns the orientation of the latest keyframe at or before t. Before
// the first keyframe it returns the first keyframe's orientation.
func (sc *Scripted) At(t time.Duration) projection.Orientation {
	if len(sc.Keys) == 0 {
		return projection.Orientation{}
	}
	cur := sc.Keys[0].Orientation
	for _, k := range sc.Keys {
		if k.At > t {
			break
		}
		cur = k.Orientation
	}
	return cur
}
