package headmotion

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"poi360/internal/projection"
)

// Five users with distinct names, each found by UserByName; an unknown
// name errs.
func TestUsers(t *testing.T) {
	t.Run("FiveDistinct", func(t *testing.T) {
		seen := map[string]bool{}
		for _, p := range Users {
			if got, err := UserByName(p.Name); err != nil || got.Name != p.Name || seen[p.Name] {
				t.Fatalf("UserByName(%q) = %q, %v (a duplicate: %v)", p.Name, got.Name, err, seen[p.Name])
			}
			seen[p.Name] = true
		}
		if len(Users) != 5 {
			t.Fatalf("%d users, want 5", len(Users))
		}
	})
	t.Run("UnknownErrs", func(t *testing.T) {
		if _, err := UserByName("nobody"); err == nil {
			t.Fatal("an unknown user gave no error")
		}
	})
}

// A stochastic trace is a pure function of its seed, and another seed
// gives another trace.
func TestStochasticDeterministic(t *testing.T) {
	a, b, c := NewStochastic(Users[1], 42), NewStochastic(Users[1], 42), NewStochastic(Users[1], 2)
	differ := false
	for ms := 0; ms < 30000; ms += 33 {
		tt := time.Duration(ms) * time.Millisecond
		oa, ob := a.At(tt), b.At(tt)
		if oa != ob {
			t.Fatalf("t=%v: %v vs %v", tt, oa, ob)
		}
		differ = differ || projection.AngularDistance(oa, c.At(tt)) >= 1
	}
	if !differ {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStochasticOrientationsValid(t *testing.T) {
	for _, p := range Users {
		m := NewStochastic(p, 7)
		for ms := 0; ms < 60000; ms += 16 {
			o := m.At(time.Duration(ms) * time.Millisecond)
			if o.Yaw < 0 || o.Yaw >= 360 {
				t.Fatalf("%s: yaw %v out of range", p.Name, o.Yaw)
			}
			if o.Pitch < -90 || o.Pitch > 90 {
				t.Fatalf("%s: pitch %v out of range", p.Name, o.Pitch)
			}
		}
	}
}

// Velocity between consecutive samples must respect roughly the profile's
// peak velocity (smoothstep peaks at 1.5× average, we allow slack for the
// discretization and micro drift).
func TestStochasticVelocityBounded(t *testing.T) {
	p := Users[2]
	m := NewStochastic(p, 3)
	prev := m.At(0)
	const stepMs = 8
	for ms := stepMs; ms < 60000; ms += stepMs {
		o := m.At(time.Duration(ms) * time.Millisecond)
		v := projection.AngularDistance(prev, o) / (float64(stepMs) / 1000)
		if v > p.PeakVelocity*1.3 {
			t.Fatalf("t=%dms velocity %v exceeds peak %v", ms, v, p.PeakVelocity)
		}
		prev = o
	}
}

// A restless user must actually change ROI tiles over a minute.
func TestStochasticChangesROITiles(t *testing.T) {
	g := projection.DefaultGrid
	m := NewStochastic(Users[4], 11)
	tiles := map[projection.Tile]bool{}
	for ms := 0; ms < 60000; ms += 33 {
		tiles[g.TileAt(m.At(time.Duration(ms)*time.Millisecond))] = true
	}
	if len(tiles) < 4 {
		t.Fatalf("scanner visited only %d tiles in 60s", len(tiles))
	}
}

// Calm users should change ROI less often than scanners.
func TestProfilesOrderedByActivity(t *testing.T) {
	g := projection.DefaultGrid
	changes := func(p Profile) int {
		m := NewStochastic(p, 5)
		prev := g.TileAt(m.At(0))
		n := 0
		for ms := 33; ms < 120000; ms += 33 {
			cur := g.TileAt(m.At(time.Duration(ms) * time.Millisecond))
			if cur != prev {
				n++
				prev = cur
			}
		}
		return n
	}
	calm := changes(Users[0])
	scanner := changes(Users[4])
	if scanner <= calm {
		t.Fatalf("scanner changes (%d) should exceed calm (%d)", scanner, calm)
	}
}

func TestSmoothstep(t *testing.T) {
	if smoothstep(-1) != 0 || smoothstep(2) != 1 {
		t.Fatal("smoothstep clamp broken")
	}
	if math.Abs(smoothstep(0.5)-0.5) > 1e-12 {
		t.Fatalf("smoothstep(0.5) = %v", smoothstep(0.5))
	}
	if smoothstep(0.25) >= 0.25 {
		t.Fatal("smoothstep should ease in below linear")
	}
}

func TestShortestYawDelta(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 10, 10}, {350, 10, 20}, {10, 350, -20}, {0, 180, 180}, {90, 90, 0},
	}
	for _, c := range cases {
		if got := shortestYawDelta(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("shortestYawDelta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestScripted(t *testing.T) {
	sc := &Scripted{Keys: []Key{
		{At: 0, Orientation: projection.Orientation{Yaw: 10}},
		{At: time.Second, Orientation: projection.Orientation{Yaw: 90}},
		{At: 2 * time.Second, Orientation: projection.Orientation{Yaw: 200}},
	}}
	if o := sc.At(0); o.Yaw != 10 {
		t.Fatalf("t=0: %v", o)
	}
	if o := sc.At(500 * time.Millisecond); o.Yaw != 10 {
		t.Fatalf("t=0.5s: %v", o)
	}
	if o := sc.At(time.Second); o.Yaw != 90 {
		t.Fatalf("t=1s: %v", o)
	}
	if o := sc.At(5 * time.Second); o.Yaw != 200 {
		t.Fatalf("t=5s: %v", o)
	}
}

func TestScriptedEmpty(t *testing.T) {
	sc := &Scripted{}
	if o := sc.At(time.Second); o != (projection.Orientation{}) {
		t.Fatalf("empty scripted returned %v", o)
	}
}

// A static viewer is a one-key Scripted: it holds the key's orientation
// before and after the key's instant.
func TestStatic(t *testing.T) {
	o := projection.Orientation{Yaw: 42, Pitch: 7}
	s := &Scripted{Keys: []Key{{At: time.Second, Orientation: o}}}
	if s.At(0) != o || s.At(time.Hour) != o {
		t.Fatal("static moved")
	}
}

func BenchmarkStochasticAt(b *testing.B) {
	m := NewStochastic(Users[1], 1)
	for i := 0; i < b.N; i++ {
		m.At(time.Duration(i) * 33 * time.Millisecond)
	}
}

// refShortestYawDelta is shortestYawDelta as first written: the difference
// always goes through math.Mod.
func refShortestYawDelta(a, b float64) float64 {
	d := math.Mod(b-a, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

func TestShortestYawDeltaMatchesModReference(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	below360 := math.Nextafter(360, 0)
	diffs := []float64{
		0, neg0, 360, -360, below360, -below360, 720, -720,
		1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1), 180, -180,
	}
	type pair struct{ a, b float64 }
	var pairs []pair
	for _, d := range diffs {
		pairs = append(pairs, pair{0, d}, pair{-d, 0})
	}
	pairs = append(pairs, pair{0, neg0}, pair{neg0, 0}, pair{math.Inf(1), math.Inf(1)})
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20000; k++ {
		a := rng.Float64() * 360
		switch k % 3 {
		case 0:
			pairs = append(pairs, pair{a, rng.Float64() * 360})
		case 1:
			pairs = append(pairs, pair{a, (rng.Float64()*2 - 1) * 1080})
		default:
			pairs = append(pairs, pair{a, math.Float64frombits(rng.Uint64())})
		}
	}
	for _, p := range pairs {
		got, want := shortestYawDelta(p.a, p.b), refShortestYawDelta(p.a, p.b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shortestYawDelta(%v, %v) = %v (%#x), reference %v (%#x)",
				p.a, p.b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
