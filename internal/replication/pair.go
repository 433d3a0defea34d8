package replication

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Mode selects the backup architecture.
type Mode int

// Backup modes.
const (
	// Standalone runs the server with no backup (paper Table 3).
	Standalone Mode = iota + 1
	// Passive replicates the engine's own structures by write-through
	// doubling; the backup CPUs idle (paper Section 5).
	Passive
	// Active ships a redo log through a circular buffer that each backup
	// CPU applies to its database copy (paper Section 6). The primary
	// runs the best local scheme, Version 3, for its own recoverability.
	Active
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case Standalone:
		return "Standalone"
	case Passive:
		return "Passive"
	case Active:
		return "Active"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Safety selects the commit discipline of a replicated deployment (the
// paper's Section 2.1 discusses 1-safe versus 2-safe; quorum commit is the
// natural middle ground once a group has more than one backup).
type Safety int

// Safety levels.
const (
	// OneSafe returns from Commit at the local commit point; a crash in
	// the next few microseconds may lose the transaction (paper default).
	OneSafe Safety = iota
	// TwoSafe holds Commit until every live backup has applied and
	// acknowledged the transaction: the loss window closes at the price
	// of a SAN round trip to the slowest backup per commit.
	TwoSafe
	// QuorumSafe holds Commit until ceil((K+1)/2) of the K backups have
	// acknowledged: an acked transaction survives the simultaneous loss
	// of the primary and any minority of the backups, and the commit
	// latency is set by the median backup rather than the slowest.
	QuorumSafe
)

// String names the safety level.
func (s Safety) String() string {
	switch s {
	case OneSafe:
		return "1-safe"
	case TwoSafe:
		return "2-safe"
	case QuorumSafe:
		return "quorum"
	default:
		return fmt.Sprintf("Safety(%d)", int(s))
	}
}

// Valid reports whether s is a defined safety level.
func (s Safety) Valid() bool { return s >= OneSafe && s <= QuorumSafe }

// QuorumAcks returns the number of backup acknowledgements QuorumSafe
// requires in a group of k backups: ceil((k+1)/2), capped at k. The
// primary itself is the remaining member of the majority.
func QuorumAcks(k int) int {
	q := (k + 2) / 2
	if q > k {
		q = k
	}
	return q
}

// Config describes a replicated (or standalone) deployment.
type Config struct {
	Mode  Mode
	Store vista.Config
	// Params defaults to sim.Default().
	Params *sim.Params
	// Link, when set, is a shared SAN link (the SMP experiments attach
	// several groups to one link via trace capture and replay). When nil,
	// a replicated group gets a private link.
	Link *sim.Link
	// SparseBackup backs the backups' large regions with page-on-demand
	// storage (Table 8's 1 GB database without 3x host memory).
	SparseBackup bool
	// Backups is the replication degree K: the number of backup nodes fed
	// by the primary. Zero means one backup for the replicated modes
	// (the paper's pair); Standalone ignores it.
	Backups int
	// Safety selects the commit discipline (default OneSafe). Anything
	// stronger than OneSafe requires a replicated mode.
	Safety Safety
	// TwoSafe is the legacy toggle for Safety == TwoSafe; setting it with
	// Safety left at OneSafe upgrades the safety level.
	TwoSafe bool
	// CommitBatch enables group commit: up to CommitBatch transactions
	// committing back to back coalesce into one producer-pointer publish
	// and (under TwoSafe/QuorumSafe) one acknowledgement wait. 0 or 1
	// disables batching, reproducing the per-commit pipeline exactly.
	// Commits sitting in an unflushed batch at a primary crash are lost —
	// the batched generalization of the paper's 1-safe window.
	CommitBatch int
	// CommitWindow bounds, in simulated time, how long a commit may wait
	// in an open batch: a commit landing CommitWindow or more after the
	// batch opened seals and flushes it (itself included). Setting only
	// CommitWindow (CommitBatch 0) gives pure window-based batching;
	// setting neither disables group commit. Settle and Flush always ship
	// the open batch.
	CommitWindow sim.Dur
	// RepairChunk bounds the bytes one background-repair pump ships, so
	// the state transfer interleaves with commits at a fine grain
	// (default 64 KB).
	RepairChunk int
	// RepairShare is the fraction of the SAN bandwidth the online
	// repair's background copier may consume while transactions run
	// (default 0.5; must lie in (0, 1]).
	RepairShare float64
	// SettleGrace overrides the derived quiesce duration QuiesceGrace
	// computes from the platform constants (drain age, posted window,
	// link latency). Zero derives.
	SettleGrace sim.Dur
	// Autopilot switches on the unattended failure-detection/response
	// subsystem (heartbeats, lease-guarded auto-failover, self-healing
	// repair). The zero value disables it, leaving every fault to the
	// manual Crash/Failover/Repair calls exactly as before.
	Autopilot AutopilotConfig
	// Durability switches on the per-replica disk tier (redo WAL +
	// snapshots + cold-restart recovery; see durability.go). The zero
	// value disables it: no files are written and the simulation's
	// metrics are bit-for-bit those of a purely memory-replicated group.
	Durability DurabilityConfig
	// Obs attaches a metrics registry and event ring (see internal/obs
	// and obs.go): commit/flush latency histograms, read-routing
	// counters, per-backup lag gauges, and failover/repair/WAL traces.
	// Nil (the default) disables the whole layer: no instrument is
	// registered, no event is emitted, and the simulated metrics are
	// bit-for-bit those of an unobserved group.
	Obs *obs.Registry
}

// TxHandle is the transactional surface shared by all modes; vista.Tx
// satisfies it, and the replicated modes wrap it with redo capture and/or
// the configured commit-safety wait.
type TxHandle interface {
	SetRange(off, n int) error
	Write(off int, src []byte) error
	Read(off int, dst []byte) error
	Commit() error
	Abort() error
}

var _ TxHandle = (*vista.Tx)(nil)

// Group state errors.
var (
	// ErrCrashed is the engine's crash marker, shared so that an error a
	// transaction handle passes up from its dead store already is the
	// group's (and the facade's) crashed sentinel.
	ErrCrashed             = vista.ErrCrashed
	ErrNotCrashed          = errors.New("replication: primary still alive")
	ErrNoBackup            = errors.New("replication: no surviving backup")
	ErrActiveNeedV3        = errors.New("replication: active backup requires the Version 3 local scheme")
	ErrSafetyNeedsBackup   = errors.New("replication: 2-safe and quorum commit require a replicated mode")
	ErrSafetyUnavailable   = errors.New("replication: not enough reachable backups for the configured safety level")
	ErrNoSuchBackup        = errors.New("replication: no such backup")
	ErrAutopilotNeedsPeers = errors.New("replication: autopilot requires a replicated mode")
	ErrLeaseExpired        = errors.New("replication: primary lease expired; deposed primary refuses new commits")
	ErrPartitioned         = errors.New("replication: primary is partitioned from the SAN")
)

// Pair is the historical name for a Group: the paper evaluates exactly one
// primary and one backup, and every single-backup call site keeps working
// through this alias.
type Pair = Group

// NewPair constructs a deployment with the default replication degree
// (one backup outside Standalone) — the paper's configuration.
func NewPair(cfg Config) (*Pair, error) { return NewGroup(cfg) }

// regionBase leaves the zero page unmapped so a zero address is always a
// wild pointer.
const regionBase = 8 << 20
