package obs

// shardagg.go is the streaming-aggregation side of production telemetry:
// a ShardAgg merges counters, log₂ histograms, gauges and episode
// statistics across per-cell (or per-session) shard buses without ever
// holding the event stream, and a Replayer rebuilds the same aggregate
// from a binary stream — so the in-memory and decoded views are
// byte-identical.
//
// # Determinism rule
//
// Histogram sums are float accumulations, so merge order changes the
// exact bytes of derived means. ShardAgg therefore merges in a fixed
// order — ascending shard id, and within a shard, emission order (which
// is how both live buses and the per-shard delta chains of the binary
// format deliver events). Any run of the same simulation, at any worker
// count, through memory or through a .pbt file, renders the same bytes.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// ShardAgg aggregates telemetry across shards. Bind attaches a shard's
// bus (its registry is read at merge time; its event stream feeds a
// per-shard episode tracker as it is emitted). Bind is synchronized so
// parallel workers can register shards as they start; the merge accessors
// must only run after every bound bus has quiesced.
type ShardAgg struct {
	mu     sync.Mutex
	shards map[int32]*shardState
}

type shardState struct {
	bus     *Bus
	tracker EpisodeTracker
}

// NewShardAgg creates an empty aggregate (the zero value also works).
func NewShardAgg() *ShardAgg { return &ShardAgg{} }

// Bind attaches bus as shard id's stream. The bus gains a stream
// observer feeding the shard's episode tracker, so episode statistics
// accumulate without event retention (pair with Bus.DisableRetention for
// bounded memory). Each shard id binds exactly one bus; binding twice
// panics — shard identity is what makes the merge order deterministic.
func (a *ShardAgg) Bind(shard int32, b *Bus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.shards == nil {
		a.shards = map[int32]*shardState{}
	}
	if _, dup := a.shards[shard]; dup {
		panic(fmt.Sprintf("obs: shard %d bound twice", shard))
	}
	st := &shardState{bus: b}
	a.shards[shard] = st
	b.observe(st.tracker.Observe)
}

// Shards reports the bound shard ids in ascending order.
func (a *ShardAgg) Shards() []int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sortedIDs()
}

func (a *ShardAgg) sortedIDs() []int32 {
	ids := make([]int32, 0, len(a.shards))
	for id := range a.shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Merged folds every shard's registry — counters, histograms, gauges —
// into a fresh registry-only Bus (no events), merging in ascending
// shard-id order. On gauge-name collisions the highest shard id wins.
func (a *ShardAgg) Merged() *Bus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := NewBus()
	for _, id := range a.sortedIDs() {
		out.absorb(a.shards[id].bus)
	}
	return out
}

// Episodes concatenates every shard's reconstructed episodes in merge
// order (ascending shard id, emission order within each shard).
func (a *ShardAgg) Episodes() []Episode {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Episode
	for _, id := range a.sortedIDs() {
		out = append(out, a.shards[id].tracker.Episodes()...)
	}
	return out
}

// Summary folds the merged episodes into aggregate statistics.
func (a *ShardAgg) Summary() EpisodeStats { return SummarizeEpisodes(a.Episodes()) }

// Replayer incrementally replays a binary telemetry stream into a
// ShardAgg (and an optional per-event callback), tolerating arbitrary
// read boundaries: feed whatever bytes are available — a trailing partial
// record is buffered until later bytes complete it. This is the engine
// of `poi360-trace`, whole-file and `-live`.
type Replayer struct {
	agg     *ShardAgg
	dec     EventDecoder
	buses   map[int32]*Bus
	pending []byte
	records int64
	// rec is the record being replayed, decoded in place: a local would be
	// heap-allocated per record, since its Event's address goes to OnEvent.
	rec BinRecord
	// cur is the current shard's bus, nil from a shard marker until the
	// next data record looks it up (see shardBus).
	cur *Bus

	// OnEvent, when set, sees every decoded event in stream order. The
	// *Event is the replayer's own storage, overwritten by the next
	// record: copy what outlives the call.
	OnEvent func(shard int32, e *Event)
}

// NewReplayer creates a replayer feeding agg (which may be nil when only
// OnEvent matters).
func NewReplayer(agg *ShardAgg) *Replayer { return &Replayer{agg: agg} }

// Feed consumes p. It returns nil when p ended cleanly or mid-record
// (the remainder is buffered); any error wraps ErrBinCorrupt and the
// stream is unrecoverable.
func (r *Replayer) Feed(p []byte) error {
	r.pending = append(r.pending, p...)
	// Records are consumed by offset and the unconsumed tail is moved to the
	// front once per Feed: compacting after every record is quadratic in
	// the records a Feed completes.
	off := 0
	rec := &r.rec
	for {
		n, err := r.dec.Next(r.pending[off:], rec)
		if err != nil {
			r.pending = append(r.pending[:0], r.pending[off:]...)
			if errors.Is(err, ErrBinShort) {
				return nil
			}
			return err
		}
		off += n
		switch rec.Tag {
		case RecShard:
			r.cur = nil
		case RecEvent:
			r.records++
			r.shardBus().Ingest(&rec.Event)
			if r.OnEvent != nil {
				r.OnEvent(rec.Shard, &rec.Event)
			}
		case RecGauge:
			r.records++
			r.shardBus().SetGauge(rec.Name, rec.Value)
		}
	}
}

// shardBus returns the bus of the shard the record in r.rec belongs to,
// looking it up once per shard marker rather than once per event.
func (r *Replayer) shardBus() *Bus {
	if r.cur == nil {
		r.cur = r.bus(r.rec.Shard)
	}
	return r.cur
}

func (r *Replayer) bus(shard int32) *Bus {
	if b, ok := r.buses[shard]; ok {
		return b
	}
	if r.buses == nil {
		r.buses = map[int32]*Bus{}
	}
	b := NewBus()
	b.DisableRetention()
	if r.agg != nil {
		r.agg.Bind(shard, b)
	}
	r.buses[shard] = b
	return b
}

// Records reports how many data records (events + gauges) have been
// replayed.
func (r *Replayer) Records() int64 { return r.records }

// Pending reports how many buffered bytes await the rest of a record —
// 0 on a record boundary.
func (r *Replayer) Pending() int { return len(r.pending) }

// Finish verifies the stream ended on a record boundary after a valid
// header; a live tailer calls it once the writer is known to be done. A
// stream cut inside a record — the header included — reports ErrBinShort.
func (r *Replayer) Finish() error {
	if !r.dec.headerDone && len(r.pending) == 0 {
		return fmt.Errorf("%w: no stream header", ErrBinCorrupt)
	}
	if len(r.pending) > 0 {
		return fmt.Errorf("%w (%d byte truncated tail)", ErrBinShort, len(r.pending))
	}
	return nil
}

// ReadBinary replays a complete binary telemetry stream from rd into agg
// (and onEvent, when non-nil), returning the number of data records. A
// stream that ends mid-record reports ErrBinShort.
func ReadBinary(rd io.Reader, agg *ShardAgg, onEvent func(shard int32, e *Event)) (int64, error) {
	rep := NewReplayer(agg)
	rep.OnEvent = onEvent
	buf := make([]byte, 64<<10)
	for {
		n, err := rd.Read(buf)
		if n > 0 {
			if ferr := rep.Feed(buf[:n]); ferr != nil {
				return rep.records, ferr
			}
		}
		if err == io.EOF {
			return rep.records, rep.Finish()
		}
		if err != nil {
			return rep.records, err
		}
	}
}
