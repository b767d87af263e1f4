package core

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"

	"govents/internal/codec"
	"govents/internal/durable"
)

// laneSpill is a dispatch lane's overflow log for the OverloadSpill
// policy: a per-lane durable segment log holding the envelopes a full
// lane could not queue in memory, drained back (oldest first) when the
// lane catches up and compacted away once empty. All methods are called
// under the owning lane's mutex, so the bookkeeping fields need no
// further synchronization; the segment log itself is internally
// synchronized and its files touch disk outside any engine lock users
// can observe.
type laneSpill struct {
	dir    string // "" = spill unconfigured
	seg    int64
	logger *slog.Logger
	idx    int

	log    *durable.SegmentLog
	next   uint64 // offset of the next record to drain
	count  int    // spilled records not yet drained
	failed bool   // the log broke; degrade to shedding
	// lastDrained reports how many records the latest drain call moved,
	// for the caller's counters.
	lastDrained int
	// rec is the record scratch: the segment log copies what it is
	// handed, so one buffer serves every append.
	rec []byte
}

// errSpillStop aborts a ReadFrom once the drain batch is full.
var errSpillStop = errors.New("core: spill drain batch full")

func (sp *laneSpill) init(cfg laneConfig, idx int) {
	sp.dir = cfg.spillDir
	sp.seg = cfg.spillSeg
	sp.logger = cfg.logger
	sp.idx = idx
}

// append adds one envelope to the overflow log as its full record
// (codec.AppendEnvelope, which carries Priority like every other field),
// reporting whether it is safely spilled. Any failure (no directory,
// open error, disk error, an envelope that does not encode) returns
// false and the caller sheds the envelope instead — a broken disk must
// never wedge the lane.
func (sp *laneSpill) append(env *codec.Envelope) bool {
	if sp.failed || sp.dir == "" {
		return false
	}
	data, err := codec.AppendEnvelope(sp.rec[:0], env)
	if err != nil {
		return false
	}
	sp.rec = data
	if sp.log == nil {
		lg, err := durable.OpenSegmentLog(
			filepath.Join(sp.dir, fmt.Sprintf("lane-%d", sp.idx)),
			durable.SegmentConfig{
				SegmentBytes: sp.seg,
				// Spill is an overload valve, not a durability promise:
				// batch syncs keep the slow path from paying an fsync
				// per envelope.
				Sync:   durable.SyncBatch,
				Logger: sp.logger,
			})
		if err != nil {
			sp.logger.Error("opening lane spill log failed; shedding instead",
				"lane", sp.idx, "err", err)
			sp.failed = true
			return false
		}
		sp.log = lg
		// Records an earlier run left are never read: the drain starts
		// at the log's end.
		sp.next = lg.NextOffset()
	}
	if _, err := sp.log.Append(data); err != nil {
		sp.logger.Error("lane spill append failed; shedding instead",
			"lane", sp.idx, "err", err)
		sp.failed = true
		return false
	}
	sp.count++
	return true
}

// drain streams up to spillDrainBatch spilled records (oldest first) to
// fn and advances the drain cursor. A read error with no progress
// discards the remaining backlog — livelocking the lane on a corrupt
// record would be worse than the counted loss.
func (sp *laneSpill) drain(fn func(data []byte)) {
	sp.lastDrained = 0
	if sp.log == nil || sp.count == 0 {
		sp.count = 0
		return
	}
	end := sp.next + spillDrainBatch
	err := sp.log.ReadFrom(sp.next, func(off uint64, data []byte) error {
		if off >= end {
			return errSpillStop
		}
		fn(data)
		sp.lastDrained++
		return nil
	})
	if err != nil && !errors.Is(err, errSpillStop) && sp.lastDrained == 0 {
		sp.logger.Error("lane spill drain failed; discarding spilled backlog",
			"lane", sp.idx, "records", sp.count, "err", err)
		sp.next = sp.log.NextOffset()
		sp.count = 0
		return
	}
	sp.next += uint64(sp.lastDrained)
	sp.count -= sp.lastDrained
	if sp.count <= 0 {
		sp.count = 0
		// Fully caught up: seal and drop the on-disk backlog so the next
		// overload starts from an empty log.
		_ = sp.log.Roll()
		_, _, _ = sp.log.Compact(sp.log.NextOffset())
	}
}

func (sp *laneSpill) close() {
	if sp.log != nil {
		_ = sp.log.Close()
	}
}
