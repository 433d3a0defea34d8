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
// facade boundary by mapErr.
//
// Which calls return which errors:
//
//	Call                       Errors
//	-------------------------  -------------------------------------------
//	New / NewSharded           ErrShardCount, configuration errors
//	DB.Begin                   ErrCrashed, ErrSafetyUnavailable,
//	                           ErrLeaseExpired
//	Tx.SetRange                ErrBounds, ErrTxDone, ErrCrashed
//	Tx.Write                   ErrBounds, ErrWriteOutsideRange, ErrTxDone,
//	                           ErrCrashed
//	Tx.Read                    ErrBounds, ErrTxDone, ErrCrashed
//	Tx.Commit                  ErrTxDone, ErrCrashed, ErrSafetyUnavailable
//	                           (committed locally, acks not collected),
//	                           *PartialCommitError (sharded multi-shard)
//	Tx.Abort                   ErrTxDone, ErrCrashed
//	DB.Read / DB.Load          ErrBounds, ErrCrashed (Read only)
//	DB.ReadAt                  ErrBounds, ErrCrashed,
//	                           ErrReplicaUnavailable (only for reads
//	                           pinned via ReadOpts.Replica; routed reads
//	                           fall back to the primary instead)
//	DB.Token / ReplicaElapsed  none
//	DB.ReadRaw                 none — panics on an out-of-range span
//	DB.Flush                   ErrSafetyUnavailable
//	Admin.CrashPrimary         ErrNoSuchShard, ErrCrashed (already dead)
//	Admin.PartitionPrimary     ErrNoSuchShard, ErrCrashed
//	Admin.Failover             ErrNoSuchShard, ErrNoBackup
//	Admin.Repair / RepairAsync ErrNoSuchShard, ErrNotRepairable
//	Admin.CrashBackup          ErrNoSuchShard, no-such-backup errors
//	Admin.PauseBackup          ErrNoSuchShard, no-such-backup errors
//	Admin.ResumeBackup         ErrNoSuchShard, no-such-backup errors
//	Admin.PowerFail            ErrNoSuchShard, ErrNoDurability,
//	                           ErrCrashed (power already off)
//	Admin.AddShards            ErrNotElastic, ErrRebalanceActive,
//	                           ErrShardCount, configuration errors
//	Admin.RemoveShard          ErrNotElastic, ErrRebalanceActive,
//	                           ErrNoSuchShard, ErrNoCapacity, ErrCrashed
//	Admin.Rebalance[Async]     ErrNotElastic (Cluster), ErrRebalanceActive
//	                           (Async only), ErrCrashed (mover blocked on
//	                           a dead group; resolve and call again)
//
// The kv layer (package repro/kv) adds its own taxonomy on top of this
// one; see that package's documentation.
var (
	// ErrCrashed is returned once the serving primary has crashed and no
	// failover has happened yet: by Begin, by every method of a
	// transaction handle the crash orphaned, and by charged reads. Call
	// Failover (or enable Config.Autopilot) to restore service.
	ErrCrashed = replication.ErrCrashed
	// ErrSafetyUnavailable is returned when too few backups are
	// reachable for the configured safety level: by Begin before a
	// transaction opens, or by Commit when backups failed mid-flight —
	// in the latter case the transaction is committed locally but its
	// acknowledgement discipline was not met.
	ErrSafetyUnavailable = replication.ErrSafetyUnavailable
	// ErrLeaseExpired is returned by Begin on a deposed primary: the node
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
	// and Load, on both facades.
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
	// ErrNoSuchShard is returned for an out-of-range shard selector on
	// the harmonized fault surface (see Admin): a Cluster is exactly
	// shard 0 of itself, a ShardedCluster owns shards 0..Shards()-1.
	ErrNoSuchShard = errors.New("repro: no such shard")
	// ErrNotElastic is returned by the elastic surface (AddShards,
	// RemoveShard, Rebalance) on a deployment that cannot change its
	// topology — a single Cluster, whose one replica group is its whole
	// identity. Use NewSharded (even with one shard) for elasticity.
	ErrNotElastic = errors.New("repro: deployment is not elastic")
	// ErrRebalanceActive is returned by topology changes (AddShards,
	// RemoveShard, RebalanceAsync) issued while a rebalance is still
	// moving ranges; watch RebalanceProgress for completion.
	ErrRebalanceActive = errors.New("repro: rebalance already in progress")
	// ErrNoCapacity is returned by RemoveShard when the surviving shards
	// lack the free partition slots to absorb the drained shard's data.
	ErrNoCapacity = placement.ErrNoCapacity
)

// PartialCommitError reports a sharded commit that failed part-way: the
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
	fmt.Fprintf(&b, "repro: partial sharded commit: shard %d failed: %v", e.Failed, e.Err)
	fmt.Fprintf(&b, " (committed %v, aborted %v)", e.Committed, e.Aborted)
	return b.String()
}

// Unwrap exposes the underlying shard failure to errors.Is/As.
func (e *PartialCommitError) Unwrap() error { return e.Err }

// mapErr translates internal-layer sentinels to the facade's taxonomy at
// an API boundary. It is exhaustive over the errors the internal layers
// can surface: aliased sentinels (ErrCrashed, ErrSafetyUnavailable,
// ErrLeaseExpired, ErrBounds, ErrWriteOutsideRange, ErrTxDone) pass
// through by identity, and the remaining internal values are mapped to
// their public counterparts here.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, replication.ErrNoBackup):
		return ErrNoBackup
	case errors.Is(err, replication.ErrNotRepairable):
		return ErrNotRepairable
	default:
		return err
	}
}
