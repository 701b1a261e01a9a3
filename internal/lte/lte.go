// Package lte models the LTE uplink path of POI360 senders at subframe
// (1 ms) granularity: per-UE modem firmware buffers, a proportional-fair
// grant schedule in which a UE's service rate grows with its own buffer
// occupancy (the paper's Fig. 5 relation), stochastic cell capacity driven
// by signal strength, background load and mobility, and the diagnostic
// interface that reports firmware-buffer occupancy and transport block
// sizes (TBS) every 40 ms — the MobileInsight-style feed FBCC consumes.
//
// The central type is Cell, which admits any number of UEs and allocates
// per-subframe grants with a true proportional-fair metric when several
// UEs contend. Uplink is the legacy single-user facade: a 1-UE cell whose
// in-cell contention is folded into the stochastic background-load
// process, preserved bit-for-bit for existing callers.
// A Cell is ticked every subframe (Start: sessions, the shared cell,
// Uplink) or advanced to an instant its clock has passed (Advance: the
// city), with the same grants, deliveries and diag reports to the bit.
package lte

import (
	"math"
	"time"

	"poi360/internal/seeds"
	"poi360/internal/simclock"
)

// Subframe is the LTE uplink scheduling granularity.
const Subframe = time.Millisecond

// subframeSec is Subframe.Seconds() hoisted off the per-subframe hot path
// (the method call is not constant-folded by the compiler).
var subframeSec = Subframe.Seconds()

// DefaultDiagPeriod is the report cadence of the phone chipset's diagnostic
// interface observed by the paper's prototype (§4.3.2: 40 ms).
const DefaultDiagPeriod = 40 * time.Millisecond

// The modem's calibration.
const (
	// bufferKneeBytes is the firmware-buffer occupancy at which the
	// proportional-fair uplink grant saturates (Fig. 5 knee, ≈10 KB).
	bufferKneeBytes = 10 * 1024
	// invKnee turns the per-subframe occupancy into a multiply.
	invKnee = 1.0 / bufferKneeBytes
	// tbsNoise is the relative standard deviation of granted TBS.
	tbsNoise = 0.15
)

// CellProfile describes the radio environment of a session. The three RSS
// classes and three speeds correspond to the paper's §6.2 field tests.
type CellProfile struct {
	// RSSdBm is the received signal strength; the paper's locations are
	// −115 dBm (parking garage), −82 dBm (shadowed lot), −73 dBm (open lot).
	RSSdBm float64
	// BackgroundLoad is the long-run fraction of uplink capacity consumed
	// by other users in the cell (0 = idle, ~0.45 = busy campus noon).
	// In a multi-UE Cell it models only *non-simulated* competitors;
	// contention between attached UEs emerges from the PF scheduler.
	BackgroundLoad float64
	// SpeedMph adds mobility-driven fading and handover-like outages.
	SpeedMph float64
	// Seed drives every random process in the link.
	Seed int64
}

// Named profiles matching the paper's experiment conditions.
var (
	ProfileStrongIdle = CellProfile{RSSdBm: -73, BackgroundLoad: 0.08, SpeedMph: 0, Seed: 1}
	ProfileModerate   = CellProfile{RSSdBm: -82, BackgroundLoad: 0.15, SpeedMph: 0, Seed: 1}
	ProfileWeak       = CellProfile{RSSdBm: -115, BackgroundLoad: 0.08, SpeedMph: 0, Seed: 1}
	ProfileBusy       = CellProfile{RSSdBm: -73, BackgroundLoad: 0.45, SpeedMph: 0, Seed: 1}
	// ProfileCampus is the §6.1 microbenchmark cell: moderate signal with
	// enough competing load that the uplink sits near the 2.2 Mbps median
	// LTE uplink bandwidth the paper cites [13].
	ProfileCampus = CellProfile{RSSdBm: -82, BackgroundLoad: 0.18, SpeedMph: 0, Seed: 1}
)

// BaseCapacity maps RSS to the UE's saturated uplink PHY rate in bits/s,
// interpolating the paper's observed operating range (≈1.6 Mbps in the
// garage to ≈4.6 Mbps in the open; Fig. 5 saturates around 4–5 Mbps).
func BaseCapacity(rssDBm float64) float64 {
	type anchor struct{ rss, bps float64 }
	anchors := []anchor{{-120, 1.2e6}, {-115, 1.6e6}, {-95, 2.4e6}, {-82, 3.2e6}, {-73, 4.6e6}, {-60, 5.4e6}}
	if rssDBm <= anchors[0].rss {
		return anchors[0].bps
	}
	for k := 1; k < len(anchors); k++ {
		if rssDBm <= anchors[k].rss {
			lo, hi := anchors[k-1], anchors[k]
			f := (rssDBm - lo.rss) / (hi.rss - lo.rss)
			return lo.bps + f*(hi.bps-lo.bps)
		}
	}
	return anchors[len(anchors)-1].bps
}

// Config parameterizes the legacy single-UE uplink model (Uplink). It is
// the union of one CellConfig and one UEConfig; NewUplink splits it.
type Config struct {
	Profile CellProfile
	// BufferCapBytes drops packets beyond this occupancy (modem queue cap).
	BufferCapBytes int

	// CapacityFault, when non-nil, scales the instantaneous cell capacity
	// by its return value (scripted handover outages and capacity steps;
	// see internal/faults). It must be a pure function of the instant so
	// the simulation stays deterministic.
	CapacityFault func(now time.Duration) float64
	// DiagFault, when non-nil, suppresses the diagnostic report due at the
	// given instant when it returns true (a stalled chipset diag feed).
	// Suppressed reports are dropped, not deferred: the TBS and subframes
	// they covered are lost to the consumer, exactly as a silent diag
	// interface loses them.
	DiagFault func(at time.Duration) bool
}

// DefaultConfig returns the calibrated uplink model for a profile.
func DefaultConfig(p CellProfile) Config {
	return Config{
		Profile:        p,
		BufferCapBytes: 512 * 1024,
	}
}

// cellConfig extracts the cell-wide half of the legacy Config.
func (c Config) cellConfig() CellConfig {
	return CellConfig{
		Profile:       c.Profile,
		CapacityFault: c.CapacityFault,
	}
}

// ueConfig extracts the per-UE half of the legacy Config.
func (c Config) ueConfig() UEConfig {
	return UEConfig{
		BufferCapBytes: c.BufferCapBytes,
		Seed:           seeds.Stream(c.Profile.Seed, "grant"),
		DiagFault:      c.DiagFault,
	}
}

// Validate reports an error for incoherent configurations.
func (c Config) Validate() error {
	if err := c.ueConfig().Validate(); err != nil {
		return err
	}
	return c.cellConfig().Validate()
}

// Packet is a transport-layer packet queued in the firmware buffer. Payload
// is opaque to the link.
type Packet struct {
	ID      int64
	Bytes   int
	Payload any
}

// DiagReport is one chipset diagnostic sample: the quantities the paper
// reads via the phone's diag interface every 40 ms (§5).
type DiagReport struct {
	At          time.Duration
	BufferBytes int     // firmware buffer occupancy at report time
	SumTBSBits  float64 // total TBS granted during the report interval
	Subframes   int     // subframes covered (DefaultDiagPeriod / 1 ms)
}

// Uplink is the legacy single-user modem + air-interface facade: a Cell
// with exactly one UE, in-cell contention folded into the stochastic
// background-load process. Create with NewUplink, then Start. All
// callbacks run on the simulation clock's goroutine.
type Uplink struct {
	cell *Cell
	ue   *UE
}

// NewUplink builds a 1-UE cell on clk that calls deliver for each packet
// that finishes transmission over the air. deliver may be nil. The cell's
// capacity process draws from cfg.Profile.Seed, the UE's grants from
// seeds.Stream(cfg.Profile.Seed, "grant").
func NewUplink(clk simclock.Scheduler, cfg Config, deliver func(Packet)) (*Uplink, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cell, err := NewCell(clk, cfg.cellConfig())
	if err != nil {
		return nil, err
	}
	ue := cell.admit(cfg.ueConfig(), deliver)
	return &Uplink{cell: cell, ue: ue}, nil
}

// UE returns the uplink's single UE (for shared wiring with Cell-based
// callers).
func (u *Uplink) UE() *UE { return u.ue }

// Start schedules the subframe and diagnostic timers. It must be called
// exactly once, before running the clock.
func (u *Uplink) Start() { u.cell.Start() }

// Enqueue appends a packet to the firmware buffer. It reports false (and
// counts a drop) when the modem queue cap would be exceeded.
func (u *Uplink) Enqueue(p Packet) bool { return u.ue.Enqueue(p) }

// BufferBytes reports the instantaneous firmware-buffer occupancy.
func (u *Uplink) BufferBytes() int { return u.ue.BufferBytes() }

// TotalServedBits reports the cumulative bits transmitted over the air.
func (u *Uplink) TotalServedBits() float64 { return u.ue.TotalServedBits() }

// capacityProcess composes the stochastic influences on the cell's
// saturated uplink rate: RSS base rate, Ornstein-Uhlenbeck background load
// with busy bursts, mobility fades, and rare handover-like outages at
// speed.
type capacityProcess struct {
	base    float64
	current float64

	loadTarget float64
	loadState  float64

	burstUntil  time.Duration
	burstLoad   float64
	fadeUntil   time.Duration
	fadeFactor  float64
	outageUntil time.Duration

	speedMph float64
	now      time.Duration

	// dt is the fixed step, the cell's capacity stride. The terms below
	// depend only on it and the profile, so init computes them once.
	dt            time.Duration
	sec           float64 // dt.Seconds()
	diffC         float64 // sigma * sqrt(sec)
	burstRateSec  float64 // (0.02 + 0.25*loadTarget) * sec
	fadeRateSec   float64 // (0.06 * speedMph / 15) * sec
	outageRateSec float64 // (0.004 * speedMph / 30) * sec

	// fault, when non-nil, is the scripted capacity multiplier (handover
	// outages and capacity steps from internal/faults).
	fault func(now time.Duration) float64
}

// init sets the process up for profile p, stepped every dt.
func (cp *capacityProcess) init(p CellProfile, dt time.Duration) {
	cp.base = BaseCapacity(p.RSSdBm)
	cp.loadTarget = p.BackgroundLoad
	cp.loadState = p.BackgroundLoad
	cp.speedMph = p.SpeedMph
	cp.fadeFactor = 1
	cp.dt = dt
	cp.sec = dt.Seconds()
	sigma := 0.25 * math.Sqrt(math.Max(cp.loadTarget, 0.02)) // load diffusion coefficient
	cp.diffC = sigma * math.Sqrt(cp.sec)
	cp.burstRateSec = (0.02 + 0.25*cp.loadTarget) * cp.sec
	cp.fadeRateSec = (0.06 * cp.speedMph / 15) * cp.sec
	cp.outageRateSec = (0.004 * cp.speedMph / 30) * cp.sec
	cp.recompute()
}

func (cp *capacityProcess) recompute() {
	load := cp.loadState
	if cp.now < cp.burstUntil && cp.burstLoad > load {
		load = cp.burstLoad
	}
	if load > 0.95 {
		load = 0.95
	}
	if load < 0 {
		load = 0
	}
	c := cp.base * (1 - load)
	if cp.now < cp.fadeUntil {
		c *= cp.fadeFactor
	}
	if cp.now < cp.outageUntil {
		c *= 0.08
	}
	if cp.fault != nil {
		f := cp.fault(cp.now)
		if f < 0 {
			f = 0
		}
		c *= f
	}
	cp.current = c
}

// step advances the process by its fixed step.
func (cp *capacityProcess) step(rng *seeds.SplitMix) {
	cp.now += cp.dt
	sec := cp.sec

	// Background load mean-reverts with diffusion proportional to load.
	theta := 0.5 // 1/s mean reversion
	cp.loadState += theta*(cp.loadTarget-cp.loadState)*sec + cp.diffC*rng.NormFloat64()
	if cp.loadState < 0 {
		cp.loadState = 0
	}
	if cp.loadState > 0.9 {
		cp.loadState = 0.9
	}

	// Busy-cell bursts: other users' uploads briefly grabbing the cell.
	if cp.now >= cp.burstUntil {
		if rng.Float64() < cp.burstRateSec {
			cp.burstLoad = 0.45 + rng.Float64()*0.3
			cp.burstUntil = cp.now + time.Duration((0.15+rng.ExpFloat64()*0.5)*float64(time.Second))
		}
	}

	// Mobility fades: deeper and more frequent at speed.
	if cp.speedMph > 0 && cp.now >= cp.fadeUntil {
		if rng.Float64() < cp.fadeRateSec {
			depth := 0.25 + rng.Float64()*0.45
			cp.fadeFactor = depth
			cp.fadeUntil = cp.now + time.Duration((0.1+rng.ExpFloat64()*0.5)*float64(time.Second))
		}
	}

	// Handover-like outages under vehicular mobility.
	if cp.speedMph >= 25 && cp.now >= cp.outageUntil {
		if rng.Float64() < cp.outageRateSec {
			cp.outageUntil = cp.now + time.Duration((0.3+rng.ExpFloat64()*0.6)*float64(time.Second))
		}
	}

	cp.recompute()
}
