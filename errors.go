package repro

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/placement"
	"repro/internal/replication"
	"repro/internal/vista"
)

// This file is the package's complete error taxonomy: every sentinel an
// API call can return lives here, in one place, with the call → error map
// below. Sentinels that flow through transaction handles unchanged are
// aliases of the internal layer's values, so errors.Is works on every
// path; the remaining sentinels are owned here and translated at the
// facade boundary by adminErr.
//
// Which calls return which errors:
//
//	Call                       Errors
//	-------------------------  -------------------------------------------
//	New / NewSharded           ErrShardCount, configuration errors
//	DB.Begin                   none: each group is admitted at the
//	                           transaction's first touch of it
//	Tx.SetRange                ErrBounds, ErrTxDone, ErrCrashed, and at a
//	                           group's first touch ErrSafetyUnavailable,
//	                           ErrLeaseExpired
//	Tx.Write                   as SetRange, plus ErrWriteOutsideRange
//	Tx.Read                    as SetRange
//	Tx.Commit                  ErrTxDone, ErrSafetyUnavailable (committed
//	                           locally, acks not collected); a failed
//	                           group commit (ErrCrashed) comes wrapped in
//	                           a *PartialCommitError
//	Tx.Abort                   ErrTxDone, ErrCrashed
//	DB.Read / DB.Load          ErrBounds, ErrCrashed (Read only)
//	DB.ReadAt                  ErrBounds, ErrCrashed,
//	                           ErrReplicaUnavailable (only for reads
//	                           pinned via ReadOpts.Replica; routed reads
//	                           fall back to the primary instead)
//	DB.Token / ReplicaElapsed  none
//	DB.ReadRaw                 none — panics on an out-of-range span
//	DB.Flush                   ErrSafetyUnavailable
//	BeginShard / LoadShard     ErrRebalanceActive, ErrNoSuchShard, then
//	                           as the group's Begin / Load
//	Admin.CrashPrimary         ErrNoSuchShard, ErrCrashed (already dead)
//	Admin.PartitionPrimary     ErrNoSuchShard, ErrCrashed
//	Admin.Failover             ErrNoSuchShard, ErrNoBackup
//	Admin.Repair / RepairAsync ErrNoSuchShard, ErrNotRepairable
//	Admin.CrashBackup          ErrNoSuchShard, no-such-backup errors
//	Admin.PauseBackup          ErrNoSuchShard, no-such-backup errors
//	Admin.ResumeBackup         ErrNoSuchShard, no-such-backup errors
//	Admin.PowerFail            ErrNoSuchShard, ErrNoDurability,
//	                           ErrCrashed (power already off)
//	Admin.AddShards            ErrRebalanceActive, ErrShardCount,
//	                           configuration errors
//	Admin.RemoveShard          ErrRebalanceActive, ErrNoSuchShard,
//	                           ErrNoCapacity, ErrCrashed
//	Admin.Rebalance[Async]     ErrRebalanceActive (Async only), ErrCrashed
//	                           (mover blocked on a dead group; resolve
//	                           and call again)
//
// The kv layer (package repro/kv) adds its own taxonomy on top of this
// one; see that package's documentation.
var (
	// ErrCrashed is returned once the serving primary has crashed and no
	// failover has happened yet: by a transaction's first touch of the
	// group, by every method of a transaction handle the crash orphaned,
	// and by charged reads. Call
	// Failover (or enable Config.Autopilot) to restore service.
	ErrCrashed = replication.ErrCrashed
	// ErrSafetyUnavailable is returned when too few backups are
	// reachable for the configured safety level: by a transaction's first
	// touch of the group, or by Commit when backups failed mid-flight —
	// in the latter case the transaction is committed locally but its
	// acknowledgement discipline was not met.
	ErrSafetyUnavailable = replication.ErrSafetyUnavailable
	// ErrLeaseExpired is returned by a transaction's first touch of a
	// deposed primary's group: the node
	// is partitioned from the cluster and its serving lease has run out,
	// so it refuses new commits (the surviving majority may already have
	// promoted a replacement). See Config.Autopilot.
	ErrLeaseExpired = replication.ErrLeaseExpired
	// ErrNoDurability is returned by the durability-only operations
	// (Admin.PowerFail) when the deployment runs without the disk tier
	// (Config.Durability unset).
	ErrNoDurability = replication.ErrNoDurability
	// ErrReplicaUnavailable is returned by ReadAt for a read pinned to a
	// specific replica (ReadOpts.Replica > 0) that the replica cannot
	// serve: passive scheme, not fully enrolled (mid-join, paused, gated,
	// crashed, epoch-fenced), or unable to satisfy the requested
	// consistency mode. Automatically routed reads never return it — they
	// fall back to the primary.
	ErrReplicaUnavailable = replication.ErrReplicaUnavailable
	// ErrBounds is returned for any access outside the configured
	// database size: transactional SetRange/Write/Read, charged Read,
	// and Load.
	ErrBounds = vista.ErrBounds
	// ErrWriteOutsideRange is returned by Tx.Write for bytes not covered
	// by a declared set-range (unless the cluster was built with
	// Config.UncheckedWrites).
	ErrWriteOutsideRange = vista.ErrOutOfRange
	// ErrTxDone is returned by operations on a transaction handle that
	// has already committed or aborted.
	ErrTxDone = vista.ErrTxDone
	// ErrNoBackup is returned by Failover when no surviving backup can
	// take over (standalone clusters, or every backup dead).
	ErrNoBackup = errors.New("repro: cluster has no backup")
	// ErrNotRepairable is returned by Repair and RepairAsync when every
	// configured replica is already enrolled and in sync.
	ErrNotRepairable = errors.New("repro: nothing to repair")
	// ErrShardCount is returned by NewSharded for a non-positive shard
	// count.
	ErrShardCount = errors.New("repro: shard count must be at least 1")
	// ErrNoSuchShard is returned for a shard selector outside
	// 0..Shards()-1 (see Admin).
	ErrNoSuchShard = errors.New("repro: no such shard")
	// ErrRebalanceActive is returned by topology changes (AddShards,
	// RemoveShard, RebalanceAsync) and by the placement-bypassing
	// per-group access (BeginShard, LoadShard) issued while a rebalance
	// is still moving ranges; watch RebalanceProgress for completion.
	ErrRebalanceActive = errors.New("repro: rebalance already in progress")
	// ErrNoCapacity is returned by RemoveShard when the surviving shards
	// lack the free partition slots to absorb the drained shard's data.
	ErrNoCapacity = placement.ErrNoCapacity
)

// PartialCommitError reports a commit that failed part-way: the
// shards in Committed had already committed when shard Failed's commit
// returned Err, and the remaining touched shards were rolled back
// (Aborted). Cross-shard atomicity is out of scope by design, so callers
// that span shards must be prepared to observe — and, if needed,
// compensate — the committed subset.
type PartialCommitError struct {
	// Committed lists shard indices whose commit completed, in commit
	// order.
	Committed []int
	// Failed is the shard whose commit returned Err.
	Failed int
	// Aborted lists shard indices rolled back after the failure.
	Aborted []int
	// Err is the underlying commit failure on shard Failed.
	Err error
}

// Error implements error.
func (e *PartialCommitError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "repro: partial commit: shard %d failed: %v", e.Failed, e.Err)
	fmt.Fprintf(&b, " (committed %v, aborted %v)", e.Committed, e.Aborted)
	return b.String()
}

// Unwrap exposes the underlying shard failure to errors.Is/As.
func (e *PartialCommitError) Unwrap() error { return e.Err }

// adminErr translates an Admin operation's internal-layer error to the
// facade's taxonomy: the internal no-backup and nothing-to-repair values
// map to their public sentinels, anything else is wrapped with the
// operation's name. Sentinels that flow through the data plane
// (ErrCrashed, ErrSafetyUnavailable, ErrLeaseExpired, ErrBounds,
// ErrWriteOutsideRange, ErrTxDone) are aliases and pass through by
// identity.
func adminErr(op string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, replication.ErrNoBackup):
		return ErrNoBackup
	case errors.Is(err, replication.ErrNotRepairable):
		return ErrNotRepairable
	default:
		return fmt.Errorf("repro: %s: %w", op, err)
	}
}
