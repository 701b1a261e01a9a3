// Package compress implements POI360's ROI-based spatial compression
// (§4.1–§4.2): the compression-mode family of Eq. 1, the client-side ROI
// mismatch-time estimator of Eq. 2, the adaptive mode-switching controller
// that is the paper's first contribution, and the two benchmark schemes it
// is evaluated against — Conduit (aggressive crop) and Pyramid encoding
// (fixed conservative distribution).
package compress

import (
	"fmt"
	"math"
	"time"

	"poi360/internal/fifo"
	"poi360/internal/projection"
)

// LMin is the compression level of the ROI center: no spatial compression.
const LMin = 1.0

// LevelCap bounds any spatial compression level: a tile cannot shrink
// below 1/LevelCap of its area (the prototype's "lowest possible quality",
// §6.1.1 — below this there is nothing left to decode). It also sets the
// floor quality: PSNR(32) lands in the Bad band of Table 1.
const LevelCap = 32.0

// lMinEps is the tolerance when testing whether a spatial level equals LMin.
const lMinEps = 1e-9

// Matrix holds per-tile compression levels, indexed by Grid.Index.
type Matrix []float64

// ModePlateau is the tile distance kept at LMin around the ROI center in
// every Eq. 1 mode. The paper's Fig. 4 draws each mode's quality curve with
// a flat top around the ROI center before the drop: the ROI the viewer
// actually watches spans more than the single center tile, so the
// immediate neighborhood is always delivered at full quality and C shapes
// the fall-off beyond it.
const ModePlateau = 1

// Controller chooses the spatial compression matrix for each outgoing
// frame, given the sender's current belief of the viewer ROI, and consumes
// the ROI-mismatch feedback that drives adaptation.
type Controller interface {
	// Levels returns the matrix for the sender's ROI belief and an opaque
	// mode label recorded in traces (the adaptive controller's mode index).
	// The matrix is a shared read-only view from the memoized Eq. 1 cache:
	// callers must not mutate it, and it stays valid indefinitely (frame
	// metadata may carry it to the receiver).
	Levels(roi projection.Tile) (Matrix, int)
	// Family returns the matrix family Levels uses under label, and false
	// for a label it never returns. A receiver holding only a frame's
	// label and ROI rebuilds the frame's matrix through it.
	Family(label int) (*ModeFamily, bool)
	// ObserveMismatch feeds the latest window-averaged mismatch time M.
	ObserveMismatch(m time.Duration)
}

// Adaptive is POI360's adaptive spatial compression (§4.2): K pre-defined
// modes ordered by decreasing aggressiveness; the measured mismatch time M
// selects the mode via im = clamp(ceil(M/ModeQuantum), 1, K). (The paper prints
// the selection as "max(8, ⌈M/200ms⌉)"; its surrounding text — 8 modes,
// higher M ⇒ smoother quality drop — makes clear the index saturates at 8.)
type Adaptive struct {
	fams []*ModeFamily // fams[k] = the family of mode k+1; C decreasing
	mode int           // current 1-based mode index
}

// DefaultModeCs are the paper's 8 aggressiveness levels: C drawn from
// {1.1, …, 1.8}, listed from most aggressive (mode 1, steepest) to most
// conservative (mode 8, flattest).
func DefaultModeCs() []float64 {
	return []float64{1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1}
}

// ModeQuantum is the mismatch-time width of one mode step (200 ms, §4.2).
const ModeQuantum = 200 * time.Millisecond

// NewAdaptive builds the POI360 controller with the paper's modes.
func NewAdaptive(g projection.Grid) *Adaptive {
	// Resolve every mode's memoized matrix family once, at construction:
	// the per-frame Levels call is then a slice index into shared
	// read-only matrices — zero allocations on the hot path.
	cs := DefaultModeCs()
	fams := make([]*ModeFamily, len(cs))
	for i, c := range cs {
		fams[i] = FamilyFor(g, c)
	}
	return &Adaptive{fams: fams, mode: 1}
}

// Levels implements Controller. The returned matrix is a shared read-only
// view from the memoized Eq. 1 family (bit-identical to ModeMatrix);
// callers must not mutate it. The call performs no allocation.
func (a *Adaptive) Levels(roi projection.Tile) (Matrix, int) {
	return a.fams[a.mode-1].Matrix(roi), a.mode
}

// Family implements Controller: labels 1..8 are the modes.
func (a *Adaptive) Family(label int) (*ModeFamily, bool) {
	if label < 1 || label > len(a.fams) {
		return nil, false
	}
	return a.fams[label-1], true
}

// ObserveMismatch implements Controller: selects the compression mode from
// the measured mismatch time.
func (a *Adaptive) ObserveMismatch(m time.Duration) {
	im := int(math.Ceil(float64(m) / float64(ModeQuantum)))
	if im < 1 {
		im = 1
	}
	if im > len(a.fams) {
		im = len(a.fams)
	}
	a.mode = im
}

// Static is a controller that never adapts (§6.1.1: the benchmarks are
// "incapable of dynamically adapting the compression modes"): one matrix
// family, chosen at construction, labelled 0, with M ignored. NewConduit,
// NewPyramid and NewFixed build the three schemes it serves.
type Static struct {
	fam *ModeFamily
}

// Levels implements Controller. The returned matrix is a shared read-only
// memoized view; callers must not mutate it.
func (s *Static) Levels(roi projection.Tile) (Matrix, int) {
	return s.fam.Matrix(roi), 0
}

// Family implements Controller: label 0 is the one family.
func (s *Static) Family(label int) (*ModeFamily, bool) {
	return s.fam, label == 0
}

// ObserveMismatch implements Controller; a static scheme never adapts.
func (s *Static) ObserveMismatch(time.Duration) {}

// ConduitCropRing is how many tile rings around the ROI tile the crop
// keeps at full quality. 0 means the crop is exactly the reported ROI
// region with no margin — any ROI shift beyond the tile immediately shows
// floor-quality content. This is the paper's Fig. 4 "sharp quality drop"
// curve and reproduces its observation that Conduit "only has 2
// compression levels, thus ROI shifting triggers unacceptable video
// quality oscillation between the high/low levels" (§6.1.1).
const ConduitCropRing = 0

// ConduitNonROILevel is the "lowest possible quality" level for cropped-out
// tiles: the spatial level cap, whose PSNR lands in the Bad band.
const ConduitNonROILevel = LevelCap

// NewConduit builds the aggressive benchmark [1 in the paper]: it crops
// the ROI region — the ROI tile plus a ConduitCropRing-wide neighborhood —
// at LMin and streams only that; to avoid blank regions the evaluation
// still sends non-ROI tiles at the lowest possible quality (§6.1.1). Two
// levels only.
func NewConduit(g projection.Grid) *Static {
	return &Static{fam: conduitFamily(g)}
}

// PyramidC is the fixed smooth-decay constant of the Pyramid benchmark,
// chosen at the conservative end of the mode family.
const PyramidC = 1.2

// NewPyramid builds the conservative benchmark [7 in the paper]: the frame
// is centered at the ROI with quality decaying smoothly toward the corners
// — a fixed Eq. 1 mode with a small C, never adapted.
func NewPyramid(g projection.Grid) *Static {
	return &Static{fam: FamilyFor(g, PyramidC)}
}

// NewFixed pins one Eq. 1 mode of constant c forever — the no-mode-switch
// ablation.
func NewFixed(g projection.Grid, c float64) *Static {
	if c <= 1 {
		panic(fmt.Sprintf("compress: fixed C %g must exceed 1", c))
	}
	return &Static{fam: FamilyFor(g, c)}
}

// MismatchEstimator measures the ROI mismatch time M at the client per
// Eq. 2 and maintains the sliding-window average that is fed back to the
// sender every frame interval (§4.2).
type MismatchEstimator struct {
	g      projection.Grid
	window time.Duration

	samples fifo.Queue[struct{ at, m time.Duration }]
	sum     time.Duration // of the samples' m: integer, so exact in any order

	init     bool
	lastTile projection.Tile
	pending  bool
	t0       time.Duration
}

// NewMismatchEstimator creates an estimator averaging M over window.
func NewMismatchEstimator(g projection.Grid, window time.Duration) *MismatchEstimator {
	if window <= 0 {
		panic("compress: mismatch window must be positive")
	}
	return &MismatchEstimator{g: g, window: window}
}

// Observe processes one received frame: now is the arrival time, actualROI
// the client's current ROI tile, spatialLevelAtROI the *spatial* (scale-
// removed) compression level the frame carries at that tile, and frameDelay
// the frame's one-way delay dv. It returns the window-averaged M.
func (e *MismatchEstimator) Observe(now time.Duration, actualROI projection.Tile, spatialLevelAtROI float64, frameDelay time.Duration) time.Duration {
	if !e.init {
		e.init = true
		e.lastTile = actualROI
	}
	if actualROI != e.lastTile {
		// The user moved: start (or restart, for consecutive switches)
		// counting the mismatch interval.
		e.t0 = now
		e.pending = true
		e.lastTile = actualROI
	}

	var m time.Duration
	matched := spatialLevelAtROI <= LMin+lMinEps
	switch {
	case matched:
		// Quality in the (possibly new) ROI has converged to the highest
		// level: only the floor dv remains (Eq. 2, second case).
		e.pending = false
		m = frameDelay
	case e.pending:
		m = now - e.t0
		if m < frameDelay {
			m = frameDelay
		}
	default:
		// Low quality at the ROI without an observed tile switch means the
		// sender's belief diverged anyway (e.g. feedback loss): count from
		// now on.
		e.t0 = now
		e.pending = true
		m = frameDelay
	}

	e.samples.Push(struct{ at, m time.Duration }{now, m})
	e.sum += m
	// Evict samples older than the window; the one just pushed stays.
	for now-e.samples.Front().at > e.window {
		e.sum -= e.samples.Pop().m
	}
	return e.sum / time.Duration(e.samples.Len())
}
