package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// The deployment every workload runs: the shape cmd/kvserver defaults to.
const (
	dbSize    = 8 << 20 // replicated database bytes
	numKeys   = 10_000  // keys preloaded before any timing
	valueSize = 128     // bytes per value, version header included
	versionAt = 8       // the value's first 8 bytes hold its version
)

// workload is one named traffic mix. Later changes cite these names.
type workload struct {
	name string
	why  string
	// served routes the load through kvserver on loopback and one
	// kvclient connection per caller; otherwise one caller drives
	// kv.Store in-process.
	served bool
	// callers is the number of closed-loop callers.
	callers int
	// readPct is the share of operations that are GETs.
	readPct int
	// durable switches the disk tier on and ends the run with a power
	// failure, a torn WAL tail and a cold restart.
	durable bool
	// failover runs the autopilot and crashes the primary once a
	// window, whenever the previous crash has been repaired.
	failover bool
	// simOps is the fixed op count over which sim_ops_per_s is taken,
	// so that one caller and one seed repeat it exactly.
	simOps int
	// warmupOps is the number of ops each caller runs before the clock
	// starts: caches fill, lazy set-up finishes.
	warmupOps int
}

var workloads = []workload{
	{
		name:    "kv-inproc-mixed",
		why:     "V3 active K=3 quorum, 8 MiB, 10k keys, 128 B values; one caller on kv.Store, 50/50, memory-only: the floor under kv, facade, replication, emulator; exact sim counts",
		callers: 1, readPct: 50, simOps: 100_000, warmupOps: 50_000,
	},
	{
		name:    "served-mixed",
		why:     "same deployment, 50/50 over kvserver on loopback and 2 kvclient connections, closed loop: adds the wire and two server goroutines contending on the store lock",
		served:  true,
		callers: 2, readPct: 50, simOps: 50_000, warmupOps: 10_000,
	},
	{
		// Not in BENCHMARK.json: it is fsync-bound, and on a shared
		// virtual disk its figures move 25-50% from one run to the next
		// (a bare loop of the same four fdatasyncs moves 10-20%), more
		// than the largest regression bound (25%). Its WAL files must stay inside
		// the checkout, so a RAM-backed directory is not an option.
		name:   "served-durable-writes",
		why:    "same deployment with the WAL tier on, 90% puts over 2 connections, then power failure, torn WAL tails and cold restart: fsync- and commit-bound",
		served: true, durable: true,
		callers: 2, readPct: 10, simOps: 2_000, warmupOps: 1_000,
	},
	{
		// Not in BENCHMARK.json: now and then (once in 1,200 crashes of a
		// stress run) a crash fails a PUT that was mid-transaction when
		// the primary died. The transaction's write returns
		// vista.ErrCrashed unmapped (Cluster.Begin hands out the internal
		// transaction), and kv.Store.runTx folds the abort's
		// repro.ErrCrashed into the message with %v. The error then
		// matches no retryable sentinel: kvserver answers StatusErr, the
		// client gives up, and the run exits non-zero, as it should.
		name:   "served-failover",
		why:    "same deployment with autopilot, 50/50 over 2 connections, primary crashed each second once the last repair is done: detect, failover, server heal, client retry, repair",
		served: true, failover: true,
		callers: 2, readPct: 50, simOps: 50_000, warmupOps: 10_000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// deployConfig is the replicated deployment: V3 inline log, active
// backups, K=3 at quorum safety, 8 MiB. dir switches the disk tier on
// with its default sync and snapshot intervals; autopilot matches
// cmd/kvload -selfhost, with a spare for each crash a run may make.
func deployConfig(w workload, dir string, metrics bool) repro.Config {
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  dbSize,
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Metrics: metrics,
	}
	if dir != "" {
		cfg.Durability = repro.DurabilityConfig{Dir: dir}
	}
	if w.failover {
		cfg.Autopilot = repro.AutopilotConfig{
			HeartbeatPeriod: 200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          maxCrashes,
		}
	}
	return cfg
}

// op is one pre-generated operation: a GET or a PUT of key.
type op struct {
	key uint32
	put bool
}

// inputs is everything a run sends, made from the seed before any clock
// starts: keys, per-key value bodies and each caller's op sequence.
type inputs struct {
	keys   [][]byte
	bodies [][]byte // per key: the valueSize bytes after the version header
	ops    [][]op   // per caller; a caller cycles through its sequence
}

// opsPerCaller bounds the pre-generated sequence; a caller that runs
// past its end starts over (versions keep growing, so every put is
// still distinct).
const opsPerCaller = 1 << 20

func newInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		keys:   make([][]byte, numKeys),
		bodies: make([][]byte, numKeys),
		ops:    make([][]op, w.callers),
	}
	for k := range in.keys {
		in.keys[k] = []byte(fmt.Sprintf("user%08d", k))
		b := make([]byte, valueSize-versionAt)
		rng.Read(b)
		in.bodies[k] = b
	}
	for c := range in.ops {
		seq := make([]op, opsPerCaller)
		for i := range seq {
			if rng.Intn(100) < w.readPct {
				seq[i] = op{key: uint32(rng.Intn(numKeys))}
				continue
			}
			// A uniform key among the caller's own (key k belongs to
			// caller k mod callers): each key has exactly one writer,
			// so the acknowledged-write audit is exact.
			k := rng.Intn(numKeys/w.callers)*w.callers + c
			seq[i] = op{key: uint32(k), put: true}
		}
		in.ops[c] = seq
	}
	return in
}

// fillValue writes key k's value at version ver into dst.
func (in *inputs) fillValue(dst []byte, k int, ver uint64) {
	binary.LittleEndian.PutUint64(dst[:versionAt], ver)
	copy(dst[versionAt:], in.bodies[k])
}

// checkValue returns the version a read of key k returned, or an error
// when the bytes are not a value this run wrote for k.
func (in *inputs) checkValue(k int, v []byte) (uint64, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("key %d: value is %d bytes, want %d", k, len(v), valueSize)
	}
	if !bytes.Equal(v[versionAt:], in.bodies[k]) {
		return 0, fmt.Errorf("key %d: value body is not this key's", k)
	}
	return binary.LittleEndian.Uint64(v[:versionAt]), nil
}
