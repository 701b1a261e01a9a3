package trace

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := New("t1", "Demo", "name", "value")
	tab.Add("alpha", "1")
	tab.Add("beta", "22")
	tab.Note("a note with %d", 42)
	out := tab.String()
	for _, want := range []string{"t1 — Demo", "name", "alpha", "22", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddWrongArity(t *testing.T) {
	tab := New("t", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	tab.Add("only-one")
}

func TestSeriesCSV(t *testing.T) {
	s1 := Series{Name: "s1"}
	s1.Append(1, 2)
	s1.Append(3, 4)
	s2 := Series{Name: "s2"}
	s2.Append(9, 8)
	var b strings.Builder
	if err := WriteSeriesCSV(&b, s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "s1_x,s1_y,s2_x,s2_y" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "3,4,," {
		t.Fatalf("padded row = %q", lines[2])
	}
}

// TestFNormalizesNegativeZero: values that round to zero must render "0",
// never "-0" — %f keeps the sign of tiny negatives and of IEEE -0 through
// rounding.
func TestFNormalizesNegativeZero(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	cases := []struct {
		x    float64
		prec int
		want string
	}{
		{-0.0001, 2, "0"},    // tiny negative rounds to zero
		{-0.0001, 0, "0"},    // no decimal point path
		{neg0, 3, "0"},       // IEEE negative zero
		{-0.004, 2, "0"},     // rounds to -0.00
		{-0.006, 2, "-0.01"}, // genuinely negative survives
		{-1.5, 2, "-1.5"},    // ordinary negatives untouched
		{0.0001, 2, "0"},     // positive counterpart
		{0, 4, "0"},
	}
	for _, c := range cases {
		if got := F(c.x, c.prec); got != c.want {
			t.Errorf("F(%g, %d) = %q, want %q", c.x, c.prec, got, c.want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F(1.5000, 4) != "1.5" {
		t.Fatalf("F = %q", F(1.5, 4))
	}
	if F(2, 3) != "2" {
		t.Fatalf("F = %q", F(2, 3))
	}
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
	if Mbps(2.5e6) != "2.50 Mbps" {
		t.Fatalf("Mbps = %q", Mbps(2.5e6))
	}
	if Ms(460.4) != "460 ms" {
		t.Fatalf("Ms = %q", Ms(460.4))
	}
	if DB(31.25) != "31.2 dB" && DB(31.25) != "31.3 dB" {
		t.Fatalf("DB = %q", DB(31.25))
	}
}
