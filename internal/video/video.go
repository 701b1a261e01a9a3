// Package video models the 360° video pipeline of POI360 at the tile and
// bit level. It deliberately stops short of pixels: rate control and
// ROI-based spatial compression act on per-tile bit budgets and a
// PSNR-versus-compression-level curve, which is the granularity at which
// the paper's mechanisms and metrics operate.
//
// The model is calibrated to the paper's prototype: a 4K equirectangular
// stream with 12.65 Mbps raw bitrate (§6.1.1) split over a 12×8 tile grid
// (§5), and uncompressed quality around 42 dB PSNR dropping with the
// logarithm of the compression level.
package video

import (
	"fmt"
	"math"
	"time"

	"poi360/internal/projection"
	"poi360/internal/seeds"
)

// The source and quality model's calibration (§5, §6.1.1).
const (
	// RawBitsPerSec is the raw (uncompressed-by-us, camera-encoded) 4K
	// stream bitrate.
	RawBitsPerSec = 12.65e6
	// psnrMax is the PSNR at compression level 1, psnrMin its floor, and
	// gamma the dB lost per 10·log10 of compression level.
	psnrMax = 42
	psnrMin = 8
	gamma   = 1.5
	// contentJitter is the per-frame content-difficulty noise, dB std.
	contentJitter = 1.0
	// foveaSigma is the Gaussian width (degrees) of the foveation weight
	// used when measuring ROI quality: human acuity peaks at the gaze
	// center and drops roughly quadratically with eccentricity (§2), so
	// ROI-PSNR weighs tiles by exp(−d²/2σ²)·solidAngle.
	foveaSigma = 12
)

// Config describes the synthetic 360° source.
type Config struct {
	Grid projection.Grid
	FPS  int // frames per second
	// MaxScale bounds the encoder's bitrate-targeted quality reduction on
	// top of spatial compression (a VP8-class codec runs out of quantizer
	// range): a frame cannot shrink below spatialBits/MaxScale, so schemes
	// with conservative spatial matrices carry a hard bitrate floor.
	MaxScale float64
	Seed     int64
}

// DefaultConfig matches the paper's prototype numbers.
func DefaultConfig() Config {
	return Config{
		Grid:     projection.DefaultGrid,
		FPS:      30,
		MaxScale: 12,
		Seed:     1,
	}
}

// Validate reports an error for incoherent configurations.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.FPS <= 0 {
		return fmt.Errorf("video: FPS must be positive, got %d", c.FPS)
	}
	return nil
}

// FrameInterval returns the capture interval between frames.
func (c Config) FrameInterval() time.Duration {
	return time.Duration(float64(time.Second) / float64(c.FPS))
}

// Frame is one raw 360° frame: the bits each tile would cost at compression
// level 1, before spatial compression and encoding.
type Frame struct {
	Seq      int
	Capture  time.Duration
	TileBits []float64 // indexed by Grid.Index
	Jitter   float64   // content-difficulty offset in dB for this frame
}

// Source produces a deterministic synthetic 360° stream. It stands in for
// the paper's v4l2loopback virtual webcam replaying a 4K capture: repeatable
// traffic with spatially non-uniform, slowly wandering content complexity.
type Source struct {
	cfg  Config
	rng  *seeds.SplitMix
	seq  int
	geom *projection.Geometry
	// Content hotspot (a region with more detail/motion) drifting in yaw.
	hotYaw   float64
	hotDrift float64
	weights  []float64 // scratch, per tile
	bits     []float64 // scratch: the returned frame's TileBits
	colF     []float64 // scratch, per column: hotspot factor of the frame
}

// NewSource returns a Source for cfg. It panics on invalid configs — a
// source cannot operate at all without a coherent config, and construction
// happens at setup time.
func NewSource(cfg Config) *Source {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Source{
		cfg:      cfg,
		rng:      seeds.NewSource(cfg.Seed),
		geom:     projection.GeomFor(cfg.Grid),
		hotYaw:   90,
		hotDrift: 12, // degrees per second
		weights:  make([]float64, cfg.Grid.Tiles()),
		bits:     make([]float64, cfg.Grid.Tiles()),
		colF:     make([]float64, cfg.Grid.W),
	}
}

// NextFrame produces the frame captured at time now. Frames are numbered
// sequentially from 0.
//
// The returned frame's TileBits is a per-source scratch arena: it is valid
// until the next NextFrame call on the same source, which overwrites it in
// place. The session pipeline consumes a frame (Encode) within its capture
// tick, so nothing downstream ever observes a stale buffer; callers that
// need to hold raw frames across captures must copy TileBits.
func (s *Source) NextFrame(now time.Duration) Frame {
	g := s.cfg.Grid
	perFrame := RawBitsPerSec / float64(s.cfg.FPS)

	// Base spatial weight: solid angle of the tile (equirectangular frames
	// oversample the poles; a real encoder spends bits roughly per content,
	// which tracks solid angle). The hotspot factor depends only on the
	// column (tile-center yaw), so it is evaluated W times per frame
	// instead of W·H; the row-major products and accumulation order match
	// the per-tile loop bit for bit.
	colF := s.colF
	for i := 0; i < g.W; i++ {
		d := math.Abs(projection.NormalizeYaw(s.geom.CenterYaw[i] - s.hotYaw))
		if d > 180 {
			d = 360 - d
		}
		// Up to 2× bits near the hotspot, decaying over ~90°.
		colF[i] = 1 + math.Exp(-d*d/(2*45*45))
	}
	total := 0.0
	idx := 0
	for j := 0; j < g.H; j++ {
		w := s.geom.AreaW[j]
		for i := 0; i < g.W; i++ {
			wf := w * colF[i]
			s.weights[idx] = wf
			total += wf
			idx++
		}
	}

	bits := s.bits
	for idx, w := range s.weights {
		bits[idx] = perFrame * w / total
	}

	frame := Frame{
		Seq:      s.seq,
		Capture:  now,
		TileBits: bits,
		Jitter:   s.rng.NormFloat64() * contentJitter,
	}
	s.seq++
	// Drift the hotspot with a touch of randomness.
	s.hotYaw = projection.NormalizeYaw(s.hotYaw + s.hotDrift/float64(s.cfg.FPS) + s.rng.NormFloat64()*0.2)
	return frame
}

// psnrForLevel maps an effective compression level (≥1) to PSNR in dB
// under the quality curve, before per-frame content jitter. The floor is a
// comparison, not math.Max (a call on amd64): a NaN stays NaN either way.
func psnrForLevel(level float64) float64 {
	if level < 1 {
		level = 1
	}
	p := psnrMax - gamma*10*math.Log10(level)
	if p < psnrMin {
		p = psnrMin
	}
	return p
}

// levelMemoSize bounds ROIPSNRScratch's per-call memo of psnrForLevel. A
// displayed frame's visible tiles carry at most 7 distinct levels on the
// simulator's traffic (Eq. 1 matrices times one encoder scale); levels past
// the eighth distinct one are evaluated without the memo.
const levelMemoSize = 8

// EncodedFrame is a frame after spatial compression (the per-tile level
// matrix) and bitrate-targeted encoding (the uniform scale applied by the
// encoder when the spatially-compressed frame still exceeds the bit budget).
//
// The effective per-tile level is not materialized: it is the pure product
// of the spatial matrix entry (clamped to ≥ 1) and the uniform encoder
// Scale, so EncodedFrame carries the spatial matrix by reference — in the
// session pipeline that is a shared read-only view from the memoized Eq. 1
// cache — and LevelAt computes max(1, Spatial[idx])·Scale on demand. This
// keeps the per-frame encode path allocation-free while producing levels
// bit-identical to the previously materialized slice.
type EncodedFrame struct {
	Seq     int
	Capture time.Duration
	Bits    float64 // total encoded size in bits
	// Spatial is the per-tile spatial compression matrix used by the
	// encoder (indexed by Grid.Index). It is retained by reference and
	// must not be mutated after Encode — session controllers hand out
	// immutable cached matrices, so this holds by construction.
	Spatial []float64
	Scale   float64 // uniform encoder scale ≥ 1
	Jitter  float64 // content-difficulty offset carried from the raw frame
	// SenderROI is the sender's (possibly stale) belief of the viewer ROI
	// used when choosing the spatial matrix; embedded in the frame like the
	// prototype embeds compression metadata in the canvas (§5).
	SenderROI projection.Tile
	// Mode is an opaque label of the compression mode used (for traces).
	Mode int
}

// LevelAt returns the effective compression level of tile index idx:
// max(1, Spatial[idx]) · Scale.
func (ef *EncodedFrame) LevelAt(idx int) float64 {
	l := ef.Spatial[idx]
	if l < 1 {
		l = 1
	}
	return l * ef.Scale
}

// Encode applies a spatial compression matrix (per-tile levels ≥ 1, indexed
// by Grid.Index) and then, if the result still exceeds budgetBits, an
// additional uniform encoder scale so the frame fits the rate controller's
// per-frame budget. A budget ≤ 0 means "no budget" (spatial only). The
// scale is capped at maxScale (≤ 0 means unbounded), so a frame can never
// shrink below spatialBits/maxScale — the codec's quantizer floor.
//
// The returned frame retains levels by reference (see EncodedFrame.Spatial);
// callers must not mutate levels afterwards.
func Encode(f *Frame, levels []float64, budgetBits float64, senderROI projection.Tile, mode int, maxScale float64) EncodedFrame {
	if len(levels) != len(f.TileBits) {
		panic(fmt.Sprintf("video: levels size %d != tiles %d", len(levels), len(f.TileBits)))
	}
	spatial := 0.0
	for idx, b := range f.TileBits {
		l := levels[idx]
		if l < 1 {
			l = 1
		}
		spatial += b / l
	}
	scale := 1.0
	if budgetBits > 0 && spatial > budgetBits {
		scale = spatial / budgetBits
	}
	if maxScale > 0 && scale > maxScale {
		scale = maxScale
	}
	return EncodedFrame{
		Seq:       f.Seq,
		Capture:   f.Capture,
		Bits:      spatial / scale,
		Spatial:   levels,
		Scale:     scale,
		Jitter:    f.Jitter,
		SenderROI: senderROI,
		Mode:      mode,
	}
}

// ROIPSNRScratch returns the viewer-perceived PSNR of the region the viewer
// is actually looking at: the solid-angle-weighted mean PSNR of the tiles
// inside the viewer's FoV centered at actual. This mirrors the paper's
// measurement methodology (§5): the client dumps only its displayed ROI and
// quality is compared there, not across the whole panorama. scratch is a
// caller-owned buffer for the visible-tile list; the (possibly grown)
// scratch is returned for reuse, so the per-displayed-frame hot path
// performs no allocation once it has reached the FoV's tile count.
func (ef *EncodedFrame) ROIPSNRScratch(cfg Config, actual projection.Orientation, fov projection.FoV, scratch []projection.Tile) (float64, []projection.Tile) {
	g := cfg.Grid
	ge := projection.GeomFor(g)
	vis := ge.AppendVisibleTiles(scratch, actual, fov)
	// The viewer-side trigonometry of the angular distance is shared by
	// every visible tile; the tile side comes from the geometry tables.
	// The column cosine — the only per-tile trig input — is evaluated on
	// the first visible tile of its column (a FoV spans about 4 of 12),
	// and psnrForLevel once per distinct level of the call. Both memos
	// hold exactly the value the uncached expression returns. The
	// foveation weight comes from the fixed-grid kernel (fovea.go): no
	// Acos/Exp per tile.
	by, sinBp, cosBp := projection.OrientationTrig(actual)
	fk := fovea
	var colCos [64]float64
	var colHave uint64
	var memoLevel, memoPSNR [levelMemoSize]float64
	memoN := 0
	num, den := 0.0, 0.0
	for _, tl := range vis {
		var cc float64
		if tl.I < len(colCos) {
			if bit := uint64(1) << uint(tl.I); colHave&bit == 0 {
				colCos[tl.I] = ge.ColumnCos(tl.I, by)
				colHave |= bit
			}
			cc = colCos[tl.I]
		} else {
			cc = ge.ColumnCos(tl.I, by)
		}
		w := ge.AreaW[tl.J] * fk.eval(ge.TileCosFromCol(tl.J, cc, sinBp, cosBp))

		level := ef.LevelAt(g.Index(tl))
		k := 0
		for k < memoN && memoLevel[k] != level {
			k++
		}
		var psnr float64
		switch {
		case k < memoN:
			psnr = memoPSNR[k]
		case memoN < levelMemoSize:
			psnr = psnrForLevel(level)
			memoLevel[memoN], memoPSNR[memoN] = level, psnr
			memoN++
		default:
			psnr = psnrForLevel(level)
		}
		num += w * psnr
		den += w
	}
	if den == 0 {
		return psnrMin, vis
	}
	return max(psnrMin, min(psnrMax+3, num/den+ef.Jitter)), vis
}

// ROILevel returns the effective compression level at the viewer's actual
// ROI center tile — the quantity whose short-term variance the paper uses
// for its stability metric (Fig. 12).
func (ef *EncodedFrame) ROILevel(g projection.Grid, actual projection.Orientation) float64 {
	return ef.LevelAt(g.Index(g.TileAt(actual)))
}
