// Package repro is a from-scratch reproduction of "Data Replication
// Strategies for Fault Tolerance and Availability on Commodity Clusters"
// (Amza, Cox, Zwaenepoel — DSN 2000): a Vista-style in-memory transaction
// server over reliable memory, replicated to K backup nodes either
// passively (write-through doubling over a modelled Memory Channel SAN) or
// actively (a redo-log circular buffer applied by each backup CPU), with
// configurable commit safety (1-safe, 2-safe, quorum), crash injection,
// most-caught-up failover and repair.
//
// A deployment is a Cluster: one or more such replica groups, striped
// across the database by a versioned placement table. New builds one group
// owning the whole database — the paper's unit of deployment; NewSharded
// builds N for throughput that scales with the group count; AddShards and
// Rebalance grow either kind online.
//
// The package is the public facade over the internal substrate packages.
// State is real — crash the primary at any instant and a backup recovers
// the committed prefix — while time is simulated, so throughput numbers are
// deterministic reproductions of the paper's tables rather than host
// measurements. See DESIGN.md for the model and EXPERIMENTS.md for the
// measured-versus-paper results.
//
// # The DB interface
//
// A Cluster satisfies the DB interface: one data-plane and observability
// surface to write drivers, harnesses and applications against. Fault
// injection and recovery live on the companion Admin interface, whose
// methods take an optional shard selector (omitted, it targets shard 0 —
// the whole deployment when there is one group). The complete error
// taxonomy is documented in one place; see errors.go.
//
// Quick start — byte offsets (db satisfies repro.DB):
//
//	db, err := repro.New(repro.Config{
//		Version: repro.V3InlineLog,
//		Backup:  repro.ActiveBackup,
//		DBSize:  8 << 20,
//	})
//	tx, _ := db.Begin()
//	tx.SetRange(0, 8)
//	tx.Write(0, []byte("8 bytes!"))
//	tx.Commit()  // 1-safe: returns without waiting for the backup
//	db.Settle()  // let the SAN drain (or use Config.Safety)
//
// Quick start — typed keys (package repro/kv lays a key-value store out
// inside the replicated bytes, so the whole keyspace survives crash,
// failover and online repair):
//
//	store, _ := kv.Open(db) // kv.Open takes any repro.DB
//	store.Put([]byte("alice"), []byte("100"))
//	v, _ := store.Get([]byte("alice"))
//
//	// Crash the primary and promote a backup: the keyspace comes back.
//	db.CrashPrimary()
//	db.Failover()
//	store, _ = kv.Open(db) // recover the index from the replicated bytes
//	v, _ = store.Get([]byte("alice"))
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Version selects one of the paper's four engine designs (Section 4).
type Version int

// Engine versions, numbered as in the paper.
const (
	// V0Vista is the original Vista design: heap-allocated undo records
	// on a linked list.
	V0Vista Version = iota
	// V1MirrorCopy mirrors the database and copies set-range areas to
	// the mirror on commit.
	V1MirrorCopy
	// V2MirrorDiff mirrors the database and writes only differing words
	// to the mirror on commit.
	V2MirrorDiff
	// V3InlineLog keeps before-images inline in a bump-pointer undo log
	// — the paper's best design.
	V3InlineLog
)

// String returns the paper's name for the version.
func (v Version) String() string { return vista.Version(v).String() }

// BackupMode selects the replication architecture (Sections 5 and 6).
type BackupMode int

// Backup modes.
const (
	// Standalone runs without a backup (paper Table 3).
	Standalone BackupMode = iota + 1
	// PassiveBackup replicates the engine's structures by write-through
	// doubling; the backup CPU idles until failover.
	PassiveBackup
	// ActiveBackup ships a redo log that the backup CPU applies to its
	// own database copy; requires V3InlineLog as the local scheme.
	ActiveBackup
)

// String names the mode as the paper does.
func (m BackupMode) String() string { return replication.Mode(m).String() }

// Safety selects the commit discipline of a replicated cluster.
type Safety int

// Safety levels.
const (
	// OneSafe returns from Commit at the local commit point (the paper's
	// choice): a crash in the next few microseconds may lose the
	// transaction.
	OneSafe Safety = Safety(replication.OneSafe)
	// TwoSafe holds Commit until every live backup has applied and
	// acknowledged the transaction.
	TwoSafe Safety = Safety(replication.TwoSafe)
	// QuorumSafe holds Commit until a majority of the replica group
	// (primary included) has the transaction: with K backups,
	// ceil((K+1)/2) acknowledgements. An acked commit survives the
	// simultaneous loss of the primary and any minority of backups.
	QuorumSafe Safety = Safety(replication.QuorumSafe)
)

// String names the safety level.
func (s Safety) String() string { return replication.Safety(s).String() }

// ReadMode selects the consistency discipline of a ReadAt: which replicas
// may serve the read and how stale a view the caller tolerates. The zero
// value is ReadPrimary — exactly today's Read, bit-for-bit identical sim
// metrics — so existing callers pay nothing.
type ReadMode int

// Read modes. Replica reads require the active backup scheme (whose
// backup copies are transaction-consistent at every applied commit);
// under the passive scheme or standalone every mode degrades to the
// primary.
const (
	// ReadPrimary serializes the read through the primary (the default).
	ReadPrimary ReadMode = ReadMode(replication.ReadPrimary)
	// ReadYourWrites serves from any backup whose applied sequence has
	// reached the caller's token (see DB.Token), else the primary: the
	// caller observes every write it has ever committed, and never an
	// older view.
	ReadYourWrites ReadMode = ReadMode(replication.ReadYourWrites)
	// ReadBounded serves from any backup within ReadOpts.Bound commit
	// sequences of the primary's committed counter, else the primary:
	// staleness is capped by an explicit, advertised bound.
	ReadBounded ReadMode = ReadMode(replication.ReadBounded)
	// ReadQuorum reads a majority of the replica group — which intersects
	// every commit quorum — serves the max-sequence view and repairs
	// laggards: the paranoid tier, guaranteed to observe every
	// acknowledged commit.
	ReadQuorum ReadMode = ReadMode(replication.ReadQuorum)
)

// String names the mode.
func (m ReadMode) String() string { return replication.ReadMode(m).String() }

// Valid reports whether m is a defined read mode.
func (m ReadMode) Valid() bool { return replication.ReadMode(m).Valid() }

// Token is a per-shard commit-sequence vector: element i is a lower bound
// on the committed-transaction count of shard i that the holder's reads
// must observe (a one-group deployment has the single element 0). Tokens are plain data —
// comparable, mergeable by element-wise max, and portable across
// deployments: a shard with no element (nil token, or a token captured on
// a deployment with fewer shards) is simply unconstrained, so a token from
// shard A is always valid on shard B.
type Token []uint64

// Merge folds other into t by element-wise max, growing t as needed, and
// returns the merged token (sessions merge the token returned by every
// commit).
func (t Token) Merge(other Token) Token {
	for len(t) < len(other) {
		t = append(t, 0)
	}
	for i, v := range other {
		if v > t[i] {
			t[i] = v
		}
	}
	return t
}

// ReadOpts selects the consistency discipline of one ReadAt. The zero
// value routes to the primary, exactly like Read.
type ReadOpts struct {
	// Mode is the consistency discipline.
	Mode ReadMode
	// Token is the session's commit-sequence floor (ReadYourWrites): the
	// vector returned by DB.Token after the session's last write. Nil or
	// short tokens leave the missing shards unconstrained.
	Token Token
	// Bound is the tolerated staleness for ReadBounded, measured in
	// commit sequences against the serving shard's committed counter.
	Bound uint64
	// Replica pins the read: 0 routes automatically per Mode, r ≥ 1
	// serves only from backup r-1 (ErrReplicaUnavailable if it cannot
	// satisfy the mode). Sessions pin the replica a routed read chose so
	// a multi-read operation observes one view.
	Replica int
}

// ReadResult reports where a ReadAt was served.
type ReadResult struct {
	// Replica is 0 when the primary served, r ≥ 1 when backup r-1 did.
	// A read spanning several groups reports the last sub-span's server.
	Replica int
	// Seq is the serving view's commit sequence and Primary the shard's
	// committed counter at routing time; Primary-Seq is the staleness the
	// read actually observed, in commit sequences (both are shard-local).
	Seq, Primary uint64
	// Repaired counts quorum-read laggards whose applied prefix the read
	// pumped forward (read repair).
	Repaired int
}

// Config sizes a Cluster; every replica group is built from it.
type Config struct {
	// Version is the engine design; see the Version constants.
	Version Version
	// Backup is the replication architecture (default Standalone).
	Backup BackupMode
	// DBSize is the database size in bytes (paper default: 50 MB).
	DBSize int
	// SparseDB backs very large databases with page-on-demand storage.
	SparseDB bool
	// UncheckedWrites disables set-range enforcement, matching Vista's
	// raw memory interface.
	UncheckedWrites bool
	// TwoSafe upgrades the commit to 2-safe: Commit returns only after
	// the backups have applied and acknowledged the transaction, closing
	// the lost-transaction window at the price of a SAN round trip per
	// commit. Legacy toggle for Safety: TwoSafe.
	TwoSafe bool
	// Backups is the replication degree K: how many backup nodes the
	// primary feeds. Zero means one backup for the replicated modes —
	// the paper's pair.
	Backups int
	// Safety selects the commit discipline (default OneSafe); stronger
	// levels require a replicated mode.
	Safety Safety
	// CommitBatch enables group commit: up to CommitBatch transactions
	// committing back to back share one redo-ring pointer publish and one
	// acknowledgement wait. 0 or 1 disables batching (the default,
	// preserving per-commit behavior exactly). Commits in an unflushed
	// batch at a crash are lost — the batched 1-safe window; Settle
	// flushes.
	CommitBatch int
	// CommitWindow bounds how long (in simulated time) a commit may sit
	// in an open batch before a later commit seals it. Zero means no
	// window; see CommitBatch.
	CommitWindow time.Duration
	// RepairChunk bounds the bytes one background-repair pump ships
	// during RepairAsync, so the state transfer interleaves with commits
	// at a fine grain (0 = 64 KB).
	RepairChunk int
	// RepairShare is the fraction of the SAN bandwidth the online
	// repair's background copier may consume while transactions run
	// (0 = 0.5; must lie in (0, 1]).
	RepairShare float64
	// SettleGrace overrides the quiesce duration Settle derives from the
	// platform constants (write-buffer drain age, posted-write window,
	// link latency). Zero derives.
	SettleGrace time.Duration
	// Autopilot switches on unattended failure handling: heartbeat
	// failure detection, lease-guarded auto-failover and self-healing
	// repair. Off (zero) by default — every fault is then handled by the
	// manual Failover/Repair calls exactly as before. The configuration
	// applies per replica group (each runs its own detector and spare
	// pool).
	Autopilot AutopilotConfig
	// Durability switches on the per-replica disk tier: redo WAL +
	// snapshots + cold-restart recovery (see DurabilityConfig). Off
	// (zero) by default — nothing touches the filesystem and every
	// simulated metric is bit-for-bit unchanged. Replica group i persists
	// under its own Dir/shard-NNN subdirectory.
	Durability DurabilityConfig
	// Metrics attaches the observability layer: a per-deployment metrics
	// registry (commit/flush latency histograms, read-route and WAL
	// counters, per-backup lag gauges) plus a fixed-size event ring
	// tracing failovers, detector transitions, repair phases and WAL
	// rotations — snapshot it with DB.Metrics. Off (false) by default:
	// no instrument is registered, nothing reads any clock on the
	// instrumentation's behalf, and every simulated metric is
	// bit-for-bit unchanged. Each replica group owns its own registry;
	// DB.Metrics merges them, stamping events with their shard.
	Metrics bool
}

// AutopilotConfig times and scopes the unattended failure loop. The zero
// value disables it.
type AutopilotConfig struct {
	// HeartbeatPeriod is the interval between heartbeat rounds exchanged
	// over the SAN; a positive value enables the autopilot. Heartbeat
	// bytes are accounted under Traffic.ControlBytes.
	HeartbeatPeriod time.Duration
	// SuspectTimeout is the silence that makes a peer Suspect; one more
	// missed beat confirms it Dead, so detection latency is bounded by
	// SuspectTimeout + HeartbeatPeriod. Zero defaults to 4× the period.
	SuspectTimeout time.Duration
	// AutoFailover promotes the most-caught-up survivor automatically
	// when the primary is declared dead, guarded by the primary lease (a
	// deposed primary whose lease expired refuses new commits with
	// ErrLeaseExpired — no split-brain).
	AutoFailover bool
	// AutoRepair re-enrolls replacements from the spare pool when a
	// backup is declared dead, and refills the group after a failover.
	AutoRepair bool
	// Spares is the number of fresh spare nodes the autopilot may enroll
	// over the cluster's lifetime (per replica group).
	Spares int
}

// Tx is one open transaction: the paper's RVM-style API (Section 2.1).
// Writes must fall inside a declared range unless the cluster was created
// with UncheckedWrites.
type Tx interface {
	// SetRange declares that [off, off+n) of the database may be
	// modified, capturing undo information.
	SetRange(off, n int) error
	// Write stores src at database offset off, in place.
	Write(off int, src []byte) error
	// Read loads database bytes (reads are allowed anywhere).
	Read(off int, dst []byte) error
	// Commit makes the transaction durable (1-safe: it does not wait
	// for the backup).
	Commit() error
	// Abort rolls the transaction back.
	Abort() error
}

// Traffic is the SAN byte breakdown of paper Tables 2, 5 and 7, plus the
// state-transfer traffic of an online repair and the control-plane traffic
// of the autopilot's failure detector.
type Traffic struct {
	ModifiedBytes int64
	UndoBytes     int64
	MetaBytes     int64
	// SyncBytes is the chunked state-transfer payload an online repair
	// shipped (RepairAsync); zero in steady state.
	SyncBytes int64
	// ControlBytes is the heartbeat (and heartbeat-ack) payload the
	// failure-detection subsystem exchanged; zero with Autopilot off.
	ControlBytes int64
}

// Total returns the total bytes shipped to the backup.
func (t Traffic) Total() int64 {
	return t.ModifiedBytes + t.UndoBytes + t.MetaBytes + t.SyncBytes + t.ControlBytes
}

// Cluster is a deployment: one or more replica groups — each a primary
// transaction server and, unless standalone, K backup nodes fed through its
// own modelled SAN — striped across the database by a versioned placement
// table (internal/placement). New builds one group owning the whole
// database; NewSharded builds N, group i owning offsets [i*ShardSize,
// (i+1)*ShardSize) at construction. AddShards + Rebalance (or RemoveShard)
// later re-home partition-aligned ranges between groups while the
// deployment serves — see rebalance.go. The groups have independent
// simulated clocks, so they progress in parallel and aggregate throughput
// scales with the group count.
//
// Operations are routed by offset: readers load the current table through
// an atomic pointer — no locks on the hot path — and a rebalance publishes
// a new version only at each range's cut-over. Ranges spanning an
// ownership boundary are split. A transaction that touches several groups
// commits on each independently, in shard order — there is no cross-shard
// atomic commit (the paper's API leaves concurrency control, and a
// fortiori distributed commit, to a separate layer); a mid-commit failure
// surfaces as a *PartialCommitError naming the shards that did and did not
// commit.
//
// # Concurrency
//
// A Cluster is safe for concurrent use. Each group runs one transaction at
// a time (the paper's single-stream engine); a transaction holds every
// group it has touched until Commit/Abort, acquiring them in first-touch
// order, so concurrent multi-group transactions must touch groups in a
// consistent (ascending) order or risk deadlock, as in any ordered-locking
// scheme. Transactions on different groups run genuinely in parallel.
// CrashPrimary may land in the middle of an open transaction exactly as on
// real hardware: the dead transaction's remaining calls fail with
// ErrCrashed and failover rolls it back. Aggregate readers (Stats,
// Committed, NetTraffic, Elapsed) sample atomic counters and never block.
type Cluster struct {
	cfg       Config
	shardSize int // bytes per replica group
	dbSize    int

	// view is the atomically published routing state: the group list and
	// the placement table, swapped together so a reader's (groups, table)
	// pair is always consistent. Hot paths load it once per span and
	// compare table pointers — not epochs — to detect a cut-over that
	// raced their group acquisition.
	view atomic.Pointer[placeView]

	// admin serializes topology mutation (AddShards, RemoveShard, the
	// planning half of Rebalance) and guards layout + pending.
	admin   sync.Mutex
	layout  *placement.Layout
	pending []int // shards added since the last rebalance plan

	// mig is the range mover's state; see rebalance.go.
	mig migState

	// finishing counts transactions inside finish(): between releasing
	// their per-group transactions and publishing their dirty marks. The
	// cut-over barrier spin-waits it to zero after taking the source's
	// transaction slot, closing the release-before-mark window.
	finishing atomic.Int64

	// reg is the deployment-level metrics registry (rebalance instruments
	// and placement events; each group has its own). Nil with
	// Config.Metrics off.
	reg     *obs.Registry
	mRanges *obs.Counter
	mBytes  *obs.Counter
	mStalls *obs.Counter
	mEpoch  *obs.Gauge

	// txPool recycles tx values (with their per-group open tables) across
	// Begin/Commit cycles so the steady-state transaction path allocates
	// nothing. The usual pool hazard applies: a Tx must not be used after
	// Commit/Abort.
	txPool sync.Pool
}

// group is one replica group and its metrics registry (nil with
// Config.Metrics off). Failover and Repair rewire the group in place, so
// the pointer never changes and the group's own mutex provides the
// locking.
type group struct {
	*replication.Pair
	reg *obs.Registry
}

// placeView is one immutable routing snapshot: the group list (tombstoned
// slots included, so shard ids index it forever) plus the placement table
// mapping global offsets onto it.
type placeView struct {
	groups []group
	table  *placement.Table
}

// shardAlign keeps NewSharded's group sizes page-friendly; elastic growth
// needs groups of a whole number of these.
const shardAlign = 4096

// New builds a one-group deployment: a single replica group of exactly
// cfg.DBSize bytes.
func New(cfg Config) (*Cluster, error) { return build(cfg, 1, cfg.DBSize) }

// NewSharded builds a deployment of shards independent replica groups,
// each configured per cfg with a DBSize slice of the total. cfg.DBSize is
// the total database size across all groups; the per-group slice is
// rounded up to a 4 KB multiple, so the deployment's Capacity may exceed
// DBSize — offsets are validated against the configured DBSize, and the
// rounding tail of the last group is unused.
func NewSharded(cfg Config, shards int) (*Cluster, error) {
	if shards < 1 {
		return nil, ErrShardCount
	}
	if cfg.DBSize <= 0 {
		return nil, fmt.Errorf("repro: invalid database size %d", cfg.DBSize)
	}
	size := (cfg.DBSize + shards - 1) / shards
	size = (size + shardAlign - 1) &^ (shardAlign - 1)
	return build(cfg, shards, size)
}

// build assembles shards groups of size bytes each under the uniform
// construction-time placement.
func build(cfg Config, shards, size int) (*Cluster, error) {
	if cfg.Backup == 0 {
		cfg.Backup = Standalone
	}
	if err := checkLayout(cfg.Durability); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, shardSize: size, dbSize: cfg.DBSize}
	groups := make([]group, 0, shards)
	for i := 0; i < shards; i++ {
		g, err := c.newGroup(i)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	// The layout tiles whole pages; a New group of an unaligned size still
	// routes every in-bounds offset to itself (see AddShards).
	c.layout = placement.NewLayout(shards, (size+shardAlign-1)&^(shardAlign-1), 0)
	c.view.Store(&placeView{groups: groups, table: c.layout.Compile(1)})
	c.mig.curFrom.Store(-1)
	c.mig.curTo.Store(-1)
	if cfg.Metrics {
		c.reg = obs.NewRegistry()
		c.mRanges = c.reg.Counter("place.ranges_moved")
		c.mBytes = c.reg.Counter("place.bytes_shipped")
		c.mStalls = c.reg.Counter("place.cutover_stalls")
		c.mEpoch = c.reg.Gauge("place.epoch")
		c.mEpoch.Set(1)
	}
	c.txPool.New = func() any {
		return &tx{c: c, open: make([]replication.TxHandle, shards)}
	}
	return c, nil
}

// checkLayout refuses a durability directory in the older single-group
// layout (Dir/node-NNN, no Dir/shard-NNN): a cold restart would find no
// WAL under Dir/shard-000 and come up empty beside the old files.
func checkLayout(d DurabilityConfig) error {
	if !d.Enabled() {
		return nil
	}
	if _, err := os.Stat(filepath.Join(d.Dir, "shard-000")); err == nil {
		return nil
	}
	if _, err := os.Stat(filepath.Join(d.Dir, "node-000")); err == nil {
		return fmt.Errorf("repro: %s holds a single-group durability layout (node-NNN directly under it); move those directories into %s",
			d.Dir, filepath.Join(d.Dir, "shard-000"))
	}
	return nil
}

// newGroup builds replica group id from the deployment's template
// configuration (shared by construction and AddShards).
func (c *Cluster) newGroup(id int) (group, error) {
	cfg := c.cfg
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	dir := cfg.Durability.Dir
	if cfg.Durability.Enabled() {
		dir = filepath.Join(dir, fmt.Sprintf("shard-%03d", id))
	}
	pair, err := replication.NewGroup(replication.Config{
		Mode: replication.Mode(cfg.Backup),
		Obs:  reg,
		Store: vista.Config{
			Version:         vista.Version(cfg.Version),
			DBSize:          c.shardSize,
			SparseDB:        cfg.SparseDB,
			UncheckedWrites: cfg.UncheckedWrites,
		},
		SparseBackup: cfg.SparseDB,
		TwoSafe:      cfg.TwoSafe,
		Backups:      cfg.Backups,
		Safety:       replication.Safety(cfg.Safety),
		CommitBatch:  cfg.CommitBatch,
		CommitWindow: simDur(cfg.CommitWindow),
		RepairChunk:  cfg.RepairChunk,
		RepairShare:  cfg.RepairShare,
		SettleGrace:  simDur(cfg.SettleGrace),
		Autopilot: replication.AutopilotConfig{
			HeartbeatPeriod: simDur(cfg.Autopilot.HeartbeatPeriod),
			SuspectTimeout:  simDur(cfg.Autopilot.SuspectTimeout),
			AutoFailover:    cfg.Autopilot.AutoFailover,
			AutoRepair:      cfg.Autopilot.AutoRepair,
			Spares:          cfg.Autopilot.Spares,
		},
		Durability: replication.DurabilityConfig{
			Dir:           dir,
			SnapshotEvery: cfg.Durability.SnapshotEvery,
			SyncEvery:     cfg.Durability.SyncEvery,
		},
	})
	if err != nil {
		return group{}, fmt.Errorf("repro: shard %d: %w", id, err)
	}
	return group{Pair: pair, reg: reg}, nil
}

// simDur converts a host duration to simulated time.
func simDur(d time.Duration) sim.Dur { return sim.Dur(d.Nanoseconds()) * sim.Nanosecond }

// Shards returns the replica-group slot count, drained tombstones included
// (ids stay valid for Token and the Admin selectors).
func (c *Cluster) Shards() int { return len(c.view.Load().groups) }

// Safety returns the commit discipline every group was configured with.
func (c *Cluster) Safety() Safety { return c.cfg.Safety }

// ShardSize returns the per-group database size in bytes: DBSize for New.
func (c *Cluster) ShardSize() int { return c.shardSize }

// DBSize returns the configured total database size — the bound every
// offset is validated against.
func (c *Cluster) DBSize() int { return c.dbSize }

// Capacity returns the allocated size across all groups: ShardSize times
// Shards, at least DBSize (NewSharded rounds each group up to 4 KB; New's
// one group is exactly DBSize).
func (c *Cluster) Capacity() int { return c.shardSize * c.Shards() }

// ShardFor returns the shard currently owning database offset off, per
// the live placement table; the answer can change across a rebalance.
func (c *Cluster) ShardFor(off int) int {
	sh, _, _ := c.view.Load().table.Locate(off)
	return sh
}

// Committed returns the committed-transaction total across all groups,
// as recorded in each serving node's reliable memory. Never blocks: the
// per-group counts are atomic shadows.
func (c *Cluster) Committed() uint64 {
	var total uint64
	for _, g := range c.view.Load().groups {
		total += g.Committed()
	}
	return total
}

// Stats reports transaction counters of the serving stores.
type Stats struct {
	Begins  int64
	Commits int64
	Aborts  int64
}

// Stats sums the serving stores' transaction counters. Never blocks: the
// counters are atomic, safe to sample while transactions run.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, g := range c.view.Load().groups {
		s := g.Stats()
		out.Begins += s.Begins
		out.Commits += s.Commits
		out.Aborts += s.Aborts
	}
	return out
}

// NetTraffic returns the bytes shipped over every group's SAN since the
// last measurement reset, by category. The counters are atomic: sampling
// while transactions run is safe.
func (c *Cluster) NetTraffic() Traffic {
	var out Traffic
	for _, g := range c.view.Load().groups {
		n := g.NetBytes()
		out.ModifiedBytes += n[mem.CatModified]
		out.UndoBytes += n[mem.CatUndo]
		out.MetaBytes += n[mem.CatMeta]
		out.SyncBytes += n[mem.CatSync]
		out.ControlBytes += n[mem.CatControl]
	}
	return out
}

// Elapsed returns the simulated time consumed since the deployment was
// built (or since the last measurement reset): the slowest group's primary
// clock. Groups run in parallel on disjoint hardware, so aggregate
// throughput is total commits divided by this maximum — which is why it
// grows with the group count. Never blocks.
func (c *Cluster) Elapsed() time.Duration {
	var latest sim.Time
	for _, g := range c.view.Load().groups {
		latest = max(latest, g.Elapsed())
	}
	return latest.Duration()
}

// ReplicaElapsed returns the longest simulated time any node — primary or
// read-serving backup, in any group — has accumulated since
// ResetMeasurement. Replica reads run on the backups' CPUs in parallel
// with the primary's commits, so a read-scaled workload's wall time is
// this max, not Elapsed alone; with no replica reads it equals Elapsed.
func (c *Cluster) ReplicaElapsed() time.Duration {
	var latest sim.Time
	for _, g := range c.view.Load().groups {
		latest = max(latest, g.ReplicaElapsed())
	}
	return latest.Duration()
}

// ResetMeasurement starts a fresh measured interval on every group
// (statistics zeroed, cache and link state preserved) and zeroes the
// deployment-level counters (placement gauges persist).
func (c *Cluster) ResetMeasurement() {
	for _, g := range c.view.Load().groups {
		g.ResetMeasurement()
	}
	if c.reg != nil {
		c.reg.Reset()
	}
}

// Flush seals and ships every group's open group-commit batch (see
// Config.CommitBatch); a no-op when group commit is off or nothing is
// pending.
func (c *Cluster) Flush() error {
	var firstErr error
	for i, g := range c.view.Load().groups {
		if err := g.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repro: shard %d: %w", i, err)
		}
	}
	return firstErr
}

// Settle lets the deployment sit idle long enough for everything in flight
// to drain: any open group-commit batch flushes, pending write buffers
// reach every reachable backup, an in-flight online repair keeps copying
// through the quiet period, and an active rebalance gets a paced pump (so
// single-stream drivers that settle between phases keep the mover
// deterministic). The quiesce duration is derived from the platform
// constants (write-buffer drain age, posted-write window, link latency)
// unless Config.SettleGrace overrides it. A crash after Settle loses
// nothing; without it, a crash immediately after a commit may lose that
// commit — the paper's 1-safe window.
func (c *Cluster) Settle() {
	if c.migActive() {
		c.pump(true, false)
	}
	for _, g := range c.view.Load().groups {
		g.Settle(g.QuiesceGrace())
	}
}

// Metrics is a point-in-time copy of the deployment's observability
// registry: counters, gauges, latency histograms and the failure/repair
// event ring, JSON-serializable for scrape surfaces. It is an alias of
// the internal snapshot type, so values flow unchanged from DB.Metrics
// through the kvwire METRICS opcode to the Prometheus text endpoint.
type Metrics = obs.Snapshot

// Metrics merges every group's observability snapshot plus the
// deployment-level registry (rebalance instruments and placement events,
// stamped shard -1): counters and gauges sum, same-name histograms merge
// bucket-wise, and each group's events are stamped with its shard before
// the timelines concatenate. The zero Snapshot with Config.Metrics off.
// Never blocks the groups.
func (c *Cluster) Metrics() Metrics {
	var out Metrics
	for i, g := range c.view.Load().groups {
		out.Merge(stamped(g.reg, i))
	}
	if c.reg != nil {
		out.Merge(stamped(c.reg, -1))
	}
	return out
}

// stamped snapshots reg with every event attributed to shard.
func stamped(reg *obs.Registry, shard int) Metrics {
	snap := reg.Snapshot()
	for j := range snap.Events {
		snap.Events[j].Shard = shard
	}
	return snap
}

// RepairProgress reports the state of the current (or most recent) online
// repair.
type RepairProgress struct {
	// Active is true while a repair is in flight.
	Active bool
	// Joining counts the backups still mid-join.
	Joining int
	// Phase is "idle", "syncing" or "catching-up".
	Phase string
	// BytesShipped and BytesPlanned describe the state transfer: pages
	// shipped so far versus the transfer plan (delta pages for a resumed
	// backup, whole regions for a fresh one).
	BytesShipped int64
	BytesPlanned int64
	// Elapsed is the simulated time the repair has been running (final
	// value once Active goes false).
	Elapsed time.Duration
}

// FailureEvent is the recorded timeline of one fault the autopilot
// handled. Zero-valued stamps mean "has not happened".
type FailureEvent struct {
	// Kind is "primary" or "backup"; Node names the failed machine.
	Kind string
	Node string
	// Shard is the owning replica group's shard index.
	Shard int
	// The per-event timeline, in cumulative simulated time: when the
	// fault was injected, when the detector declared the node dead, when
	// the promoted survivor was serving (primary faults only), when the
	// self-healing re-enrollment began, and when the cluster was back at
	// full redundancy.
	FailedAt, DetectedAt, FailedOverAt, RepairStartedAt, RestoredAt time.Duration
}

// MTTD is the mean-time-to-detect component: fault to dead-declaration.
func (e FailureEvent) MTTD() time.Duration { return e.DetectedAt - e.FailedAt }

// FailoverLatency is the dead-declaration to serving-again interval (zero
// for backup faults, which need no takeover).
func (e FailureEvent) FailoverLatency() time.Duration {
	if e.FailedOverAt == 0 {
		return 0
	}
	return e.FailedOverAt - e.DetectedAt
}

// RepairDuration is the re-enrollment transfer's duration (zero while the
// repair is still running or never started).
func (e FailureEvent) RepairDuration() time.Duration {
	if e.RestoredAt == 0 || e.RepairStartedAt == 0 {
		return 0
	}
	return e.RestoredAt - e.RepairStartedAt
}

// MTTR is the mean-time-to-restore component: fault to full redundancy
// (zero while not yet restored).
func (e FailureEvent) MTTR() time.Duration {
	if e.RestoredAt == 0 {
		return 0
	}
	return e.RestoredAt - e.FailedAt
}

// shard resolves the Admin surface's optional trailing selector: no
// argument targets shard 0, one argument targets that shard; more than one
// argument, or an index outside 0..Shards()-1, is ErrNoSuchShard.
func (c *Cluster) shard(sel []int) (group, error) {
	i := 0
	switch len(sel) {
	case 0:
	case 1:
		i = sel[0]
	default:
		return group{}, ErrNoSuchShard
	}
	gs := c.view.Load().groups
	if i < 0 || i >= len(gs) {
		return group{}, ErrNoSuchShard
	}
	return gs[i], nil
}

// onShard runs op on the selected group.
func (c *Cluster) onShard(sel []int, op func(*replication.Pair) error) error {
	g, err := c.shard(sel)
	if err != nil {
		return err
	}
	return op(g.Pair)
}

// CrashPrimary kills the selected shard's primary mid-flight: doubled
// stores still sitting in its write buffers are lost (the paper's 1-safe
// vulnerability window); packets already posted reach the backups. The
// other groups keep serving.
func (c *Cluster) CrashPrimary(shard ...int) error {
	return c.onShard(shard, (*replication.Pair).Crash)
}

// PartitionPrimary severs the selected shard's serving primary from the
// SAN without killing it: heartbeats stop, its lease stops renewing, and
// every backup is partitioned away. With Autopilot enabled the deposed
// primary refuses new commits once its lease runs out (ErrLeaseExpired),
// and with AutoFailover the surviving majority promotes a replacement no
// earlier than that same instant — the no-split-brain demonstration.
func (c *Cluster) PartitionPrimary(shard ...int) error {
	return c.onShard(shard, (*replication.Pair).PartitionPrimary)
}

// Failover performs takeover on the selected shard: the most-caught-up
// surviving backup recovers from its replicated bytes and starts serving,
// with any remaining survivors re-synced behind it (replication
// continues). Returns ErrNoBackup when no survivor exists.
func (c *Cluster) Failover(shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error {
		_, err := g.Failover()
		return adminErr("failover", err)
	})
}

// Repair restores the selected shard to its configured replication degree
// and blocks until it is back: fresh backup nodes (and resumed,
// partitioned ones) enroll behind the serving server through the same
// incremental transfer RepairAsync uses, driven to completion before the
// call returns. Transactions — on this group and every other — keep
// committing while it runs. ErrNotRepairable when there is nothing to
// repair.
func (c *Cluster) Repair(shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error {
		_, err := g.Repair()
		return adminErr("repair", err)
	})
}

// RepairAsync starts an online repair of the selected shard and returns
// immediately: resumed (partitioned) backups re-enroll by shipping only the
// pages they missed, crashed backups are replaced by fresh nodes receiving
// a full copy, and the group heals back to its configured replication
// degree — all while transactions keep committing. The chunked state
// transfer shares the SAN with the live commit stream (throughput dips
// while it runs — the availability timeline the paper measures) and
// advances with the commit stream's simulated time; Settle lets it stream
// through idle periods. Watch RepairProgress for completion; a joining
// backup starts counting toward quorum at its cut-over. ErrNotRepairable
// when there is nothing to repair.
func (c *Cluster) RepairAsync(shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error {
		return adminErr("repair", g.RepairAsync())
	})
}

// RepairProgress returns the progress of the selected shard's current or
// most recent RepairAsync/Repair; the zero value for an out-of-range
// selector.
func (c *Cluster) RepairProgress(shard ...int) RepairProgress {
	g, err := c.shard(shard)
	if err != nil {
		return RepairProgress{}
	}
	st := g.RepairStatus()
	return RepairProgress{
		Active:       st.Active,
		Joining:      st.Joining,
		Phase:        st.Phase,
		BytesShipped: st.BytesShipped,
		BytesPlanned: st.BytesPlanned,
		Elapsed:      time.Duration(st.Elapsed.Nanoseconds()),
	}
}

// CrashBackup kills backup i of the selected shard: it stops receiving and
// acknowledging and is never promoted. With QuorumSafe, acked commits
// survive the loss of the primary plus any minority of the backups.
func (c *Cluster) CrashBackup(i int, shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error { return g.CrashBackup(i) })
}

// PauseBackup partitions backup i of the selected shard away from its SAN;
// after ResumeBackup it rejoins through RepairAsync/Repair, which ships
// only the pages it missed (or nothing at all when nothing committed while
// it was away).
func (c *Cluster) PauseBackup(i int, shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error { return g.PauseBackup(i) })
}

// ResumeBackup reconnects a paused backup of the selected shard. It stays
// gated — excluded from acknowledgement — until RepairAsync or Repair
// re-enrolls it.
func (c *Cluster) ResumeBackup(i int, shard ...int) error {
	return c.onShard(shard, func(g *replication.Pair) error { return g.ResumeBackup(i) })
}

// Backups returns the selected shard's current number of backup nodes;
// zero for an out-of-range selector.
func (c *Cluster) Backups(shard ...int) int {
	g, err := c.shard(shard)
	if err != nil {
		return 0
	}
	return g.Backups()
}

// Generation returns how many failovers (manual or unattended) the
// selected shard has completed; zero for an out-of-range selector.
func (c *Cluster) Generation(shard ...int) int {
	g, err := c.shard(shard)
	if err != nil {
		return 0
	}
	return g.Generation()
}

// AutopilotEnabled reports whether the unattended failure loop is on
// (configured uniformly across groups).
func (c *Cluster) AutopilotEnabled() bool {
	return c.view.Load().groups[0].Autopilot().Enabled
}

// AutopilotEvents returns the fault timeline every group's autopilot
// recorded — one event per detected failure, stamped with its owning shard
// and carrying the MTTD/MTTR stamps the chaos harness aggregates. Empty
// with Autopilot off.
func (c *Cluster) AutopilotEvents() []FailureEvent {
	var out []FailureEvent
	for i, g := range c.view.Load().groups {
		for _, e := range g.AutopilotEvents() {
			out = append(out, FailureEvent{
				Kind:            e.Kind,
				Node:            e.Node,
				Shard:           i,
				FailedAt:        e.FailedAt.Duration(),
				DetectedAt:      e.DetectedAt.Duration(),
				FailedOverAt:    e.FailedOverAt.Duration(),
				RepairStartedAt: e.RepairStartedAt.Duration(),
				RestoredAt:      e.RestoredAt.Duration(),
			})
		}
	}
	return out
}
