// Conformance suite for the DB contract: one table-driven set of
// behavioral assertions — begin/commit/read-back, settle semantics, the
// error taxonomy of errors.go, the harmonized Admin fault surface — run
// identically against a Cluster, a 1-shard ShardedCluster and a 4-shard
// ShardedCluster. Anything that passes here is interchangeable behind the
// repro.DB + repro.Admin interfaces.
package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro"
	"repro/kv"
)

// fullDB is the combined surface the suite exercises.
type fullDB interface {
	repro.DB
	repro.Admin
}

// conformanceTargets builds the facade matrix for one configuration.
func conformanceTargets(t *testing.T, cfg repro.Config) map[string]fullDB {
	t.Helper()
	mk := func(shards int) fullDB {
		if shards == 0 {
			c, err := repro.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		sc, err := repro.NewSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// rebalanced4 reaches the 4-shard shape through the elastic path — a
	// 2-shard deployment grown online (AddShards + Rebalance) — so every
	// contract assertion also holds on a placement the range mover built.
	mkReb := func() fullDB {
		sc, err := repro.NewSharded(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.AddShards(2); err != nil {
			t.Fatal(err)
		}
		if err := sc.Rebalance(); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	return map[string]fullDB{
		"cluster":     mk(0),
		"sharded1":    mk(1),
		"sharded4":    mk(4),
		"rebalanced4": mkReb(),
	}
}

func replicatedCfg() repro.Config {
	return repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  256 << 10,
		Backups: 2,
		Safety:  repro.QuorumSafe,
	}
}

// TestDBConformanceReadBack: transactional writes spanning the whole
// offset space (including shard boundaries) commit and read back through
// every read path, and the observability counters move.
func TestDBConformanceReadBack(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			size := db.DBSize()
			if size != 256<<10 {
				t.Fatalf("DBSize = %d", size)
			}
			if db.Capacity() < size {
				t.Fatalf("Capacity %d below DBSize %d", db.Capacity(), size)
			}
			// A spanning write: one record every 8 KB plus one straddling
			// the middle (a shard boundary on the sharded facades).
			pattern := func(i int) []byte { return []byte(fmt.Sprintf("record-%04d!", i)) }
			offs := []int{0}
			for off := 8 << 10; off+16 < size; off += 8 << 10 {
				if off == size/2 {
					continue // the straddling record below covers it
				}
				offs = append(offs, off)
			}
			offs = append(offs, size/2-6, size-12)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i, off := range offs {
				if err := tx.SetRange(off, 12); err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(off, pattern(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Transactional read-back before commit.
			buf := make([]byte, 12)
			if err := tx.Read(offs[1], buf); err != nil || !bytes.Equal(buf, pattern(1)) {
				t.Fatalf("tx.Read = %q, %v", buf, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := db.Committed(); got == 0 {
				t.Fatal("Committed did not move")
			}
			if st := db.Stats(); st.Commits == 0 || st.Begins == 0 {
				t.Fatalf("Stats did not move: %+v", st)
			}
			if db.Elapsed() <= 0 {
				t.Fatal("Elapsed did not move")
			}
			if db.NetTraffic().Total() == 0 {
				t.Fatal("replicated deployment shipped no SAN bytes")
			}
			for i, off := range offs {
				if err := db.Read(off, buf); err != nil || !bytes.Equal(buf, pattern(i)) {
					t.Fatalf("Read(%d) = %q, %v", off, buf, err)
				}
				db.ReadRaw(off, buf)
				if !bytes.Equal(buf, pattern(i)) {
					t.Fatalf("ReadRaw(%d) = %q", off, buf)
				}
			}
			db.ResetMeasurement()
			if db.Elapsed() != 0 {
				t.Fatal("ResetMeasurement did not re-pin the clock")
			}
		})
	}
}

// TestDBConformanceSettleAndFailover: commit, settle, crash, fail over —
// everything committed before Settle is on the survivor, on every facade,
// through the no-argument Admin surface (shard 0).
func TestDBConformanceSettleAndFailover(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			payload := []byte("must survive the crash")
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.SetRange(64, len(payload)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(64, payload); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Settle()
			if err := db.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := db.Failover(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if err := db.Read(64, got); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("after failover Read = %q, %v", got, err)
			}
			// The cluster is degraded but repairable.
			if err := db.Repair(); err != nil {
				t.Fatalf("Repair after failover: %v", err)
			}
			if got := db.Backups(); got != 2 {
				t.Fatalf("Backups after repair = %d, want 2", got)
			}
		})
	}
}

// TestDBConformanceErrorTaxonomy: the errors.go table, facade by facade.
func TestDBConformanceErrorTaxonomy(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			size := db.DBSize()
			buf := make([]byte, 16)

			// Bounds: every access path returns ErrBounds.
			if err := db.Read(size-8, buf); !errors.Is(err, repro.ErrBounds) {
				t.Fatalf("out-of-range Read = %v", err)
			}
			if err := db.Load(-1, buf); !errors.Is(err, repro.ErrBounds) {
				t.Fatalf("out-of-range Load = %v", err)
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.SetRange(size-8, 16); !errors.Is(err, repro.ErrBounds) {
				t.Fatalf("out-of-range SetRange = %v", err)
			}
			if err := tx.Read(size, buf); !errors.Is(err, repro.ErrBounds) {
				t.Fatalf("out-of-range tx.Read = %v", err)
			}
			// Writes outside any declared range.
			if err := tx.SetRange(0, 8); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(1024, buf[:8]); !errors.Is(err, repro.ErrWriteOutsideRange) {
				t.Fatalf("undeclared Write = %v", err)
			}
			if err := tx.Write(0, buf[:8]); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Completed handles refuse further work.
			if err := tx.Commit(); !errors.Is(err, repro.ErrTxDone) {
				t.Fatalf("double Commit = %v", err)
			}
			if err := tx.Abort(); !errors.Is(err, repro.ErrTxDone) {
				t.Fatalf("Abort after Commit = %v", err)
			}

			// Shard selectors: out of range on every Admin method.
			bad := db.Shards() + 3
			if err := db.CrashPrimary(bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("CrashPrimary(bad shard) = %v", err)
			}
			if err := db.Failover(bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("Failover(bad shard) = %v", err)
			}
			if err := db.Repair(bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("Repair(bad shard) = %v", err)
			}
			if err := db.RepairAsync(bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("RepairAsync(bad shard) = %v", err)
			}
			if err := db.PartitionPrimary(bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("PartitionPrimary(bad shard) = %v", err)
			}
			if err := db.CrashBackup(0, bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("CrashBackup(bad shard) = %v", err)
			}
			if err := db.PauseBackup(0, bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("PauseBackup(bad shard) = %v", err)
			}
			if err := db.ResumeBackup(0, bad); !errors.Is(err, repro.ErrNoSuchShard) {
				t.Fatalf("ResumeBackup(bad shard) = %v", err)
			}
			if got := db.Backups(bad); got != 0 {
				t.Fatalf("Backups(bad shard) = %d", got)
			}
			if p := db.RepairProgress(bad); p != (repro.RepairProgress{}) {
				t.Fatalf("RepairProgress(bad shard) = %+v", p)
			}

			// Nothing to repair on a healthy deployment.
			if err := db.Repair(); !errors.Is(err, repro.ErrNotRepairable) {
				t.Fatalf("Repair on healthy = %v", err)
			}

			// Crash: the transaction path and reads refuse with
			// ErrCrashed until failover. A Cluster refuses at Begin; a
			// ShardedCluster's lazy per-shard Begin defers the same
			// sentinel to the first touch of the dead shard (the DB
			// contract admits both).
			if err := db.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if ctx, err := db.Begin(); err == nil {
				if err := ctx.SetRange(0, 8); !errors.Is(err, repro.ErrCrashed) {
					t.Fatalf("first touch on crashed shard = %v", err)
				}
				_ = ctx.Abort()
			} else if !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Begin on crashed = %v", err)
			}
			if err := db.Read(0, buf); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Read on crashed = %v", err)
			}
			if err := db.Failover(); err != nil {
				t.Fatal(err)
			}
			// Quorum still refuses service on the degraded group — the
			// admission-side face of the same sentinel (deferred to the
			// first shard touch on the lazy sharded Begin).
			if dtx, err := db.Begin(); err == nil {
				if err := dtx.SetRange(0, 8); !errors.Is(err, repro.ErrSafetyUnavailable) {
					t.Fatalf("first touch on degraded quorum group = %v", err)
				}
				_ = dtx.Abort()
			} else if !errors.Is(err, repro.ErrSafetyUnavailable) {
				t.Fatalf("Begin on degraded quorum group = %v", err)
			}
			if err := db.Repair(); err != nil {
				t.Fatal(err)
			}
			tx2, err := db.Begin()
			if err != nil {
				t.Fatalf("Begin after repair = %v", err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDBConformanceCrashedTx: a transaction whose primary crashes under
// it reports the public ErrCrashed from every handle method, never the
// engine's internal crash marker — the row of the errors.go table that
// kv.Store relies on to mark itself broken.
func TestDBConformanceCrashedTx(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 8)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			// Touch shard 0 first, so a sharded handle holds an open
			// per-shard transaction when the crash lands.
			if err := tx.SetRange(0, 8); err != nil {
				t.Fatal(err)
			}
			if err := db.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(0, buf); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Write on crashed tx = %v, want ErrCrashed", err)
			}
			if err := tx.SetRange(0, 8); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("SetRange on crashed tx = %v, want ErrCrashed", err)
			}
			if err := tx.Read(0, buf); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Read on crashed tx = %v, want ErrCrashed", err)
			}
			if err := tx.Abort(); !errors.Is(err, repro.ErrCrashed) {
				t.Fatalf("Abort on crashed tx = %v, want ErrCrashed", err)
			}
		})
	}
}

// TestDBConformanceReadRawBounds: an out-of-range ReadRaw panics with the
// same contract on both facades (it used to silently no-op on the sharded
// one).
func TestDBConformanceReadRawBounds(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			mustPanic := func(f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatal("out-of-range ReadRaw did not panic")
					}
				}()
				f()
			}
			buf := make([]byte, 32)
			mustPanic(func() { db.ReadRaw(db.DBSize()-8, buf) })
			mustPanic(func() { db.ReadRaw(-1, buf) })
			// In range is fine, to the last byte.
			db.ReadRaw(db.DBSize()-len(buf), buf)
		})
	}
}

// TestDBConformanceNoBackup: Failover without a survivor returns
// ErrNoBackup on every facade.
func TestDBConformanceNoBackup(t *testing.T) {
	cfg := repro.Config{Version: repro.V3InlineLog, Backup: repro.Standalone, DBSize: 64 << 10}
	for name, db := range conformanceTargets(t, cfg) {
		t.Run(name, func(t *testing.T) {
			if err := db.CrashPrimary(); err != nil {
				t.Fatal(err)
			}
			if err := db.Failover(); !errors.Is(err, repro.ErrNoBackup) {
				t.Fatalf("standalone Failover = %v", err)
			}
		})
	}
}

// TestKVRecoveryRandomized is the key-level committed-prefix property:
// across randomized workloads and crash points, every acknowledged Put is
// readable after crash → failover → kv.Open on the survivor (quorum
// commit), and every acknowledged Delete stays deleted. Runs the same
// property over a Cluster and a 4-shard ShardedCluster.
func TestKVRecoveryRandomized(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for _, shards := range []int{1, 4} {
		for it := 0; it < iters; it++ {
			name := fmt.Sprintf("shards%d/seed%d", shards, it)
			t.Run(name, func(t *testing.T) {
				cfg := replicatedCfg()
				var db fullDB
				var err error
				if shards == 1 {
					db, err = repro.New(cfg)
				} else {
					db, err = repro.NewSharded(cfg, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				store, err := kv.Open(db)
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewPCG(uint64(it)*2654435761, uint64(shards)))
				model := map[string]string{}
				key := func() []byte { return []byte(fmt.Sprintf("key%03d", r.IntN(150))) }

				ops := 100 + r.IntN(200)
				crashAt := r.IntN(ops)
				for i := 0; i < ops; i++ {
					if i == crashAt {
						// Crash a random shard's primary mid-workload,
						// promote its survivor, and restore the replica
						// degree (quorum refuses degraded service);
						// acked state must hold across all of it.
						shard := r.IntN(db.Shards())
						if err := db.CrashPrimary(shard); err != nil {
							t.Fatal(err)
						}
						if err := db.Failover(shard); err != nil {
							t.Fatal(err)
						}
						if err := db.Repair(shard); err != nil {
							t.Fatal(err)
						}
						store, err = kv.Open(db)
						if err != nil {
							t.Fatalf("kv.Open on survivor: %v", err)
						}
					}
					k := key()
					switch r.IntN(10) {
					case 0, 1: // delete
						err := store.Delete(k)
						switch {
						case err == nil:
							delete(model, string(k))
						case errors.Is(err, kv.ErrNotFound):
						default:
							t.Fatalf("op %d Delete: %v", i, err)
						}
					case 2: // multi-key txn
						txn, err := store.Begin()
						if err != nil {
							t.Fatal(err)
						}
						n := 1 + r.IntN(4)
						staged := map[string]string{}
						for j := 0; j < n; j++ {
							kk, vv := key(), fmt.Sprintf("txn%d-%d", i, j)
							if err := txn.Put(kk, []byte(vv)); err != nil {
								t.Fatal(err)
							}
							staged[string(kk)] = vv
						}
						if err := txn.Commit(); err != nil {
							t.Fatalf("op %d txn commit: %v", i, err)
						}
						for kk, vv := range staged {
							model[kk] = vv
						}
					default: // put
						v := fmt.Sprintf("val%d", i)
						if err := store.Put(k, []byte(v)); err != nil {
							t.Fatalf("op %d Put: %v", i, err)
						}
						model[string(k)] = v
					}
				}

				// Final verification pass on a freshly recovered store.
				store, err = kv.Open(db)
				if err != nil {
					t.Fatal(err)
				}
				if store.Len() != len(model) {
					t.Fatalf("recovered Len = %d, model has %d", store.Len(), len(model))
				}
				for k, v := range model {
					got, err := store.Get([]byte(k))
					if err != nil || string(got) != v {
						t.Fatalf("acked key %q: got %q, %v (want %q)", k, got, err, v)
					}
				}
			})
		}
	}
}

// writeAt commits one record through the DB facade and returns it.
func writeAt(t *testing.T, db repro.DB, off int, fill byte) []byte {
	t.Helper()
	payload := bytes.Repeat([]byte{fill}, 12)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(off, len(payload)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(off, payload); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDBConformanceReadOpts: the ReadAt consistency surface behaves
// identically on a Cluster and on both ShardedCluster arities — the zero
// ReadOpts is exactly Read, every mode returns committed bytes under its
// advertised floor, and a pinned unavailable replica surfaces
// ErrReplicaUnavailable instead of silently falling back.
func TestDBConformanceReadOpts(t *testing.T) {
	for name, db := range conformanceTargets(t, replicatedCfg()) {
		t.Run(name, func(t *testing.T) {
			const off = 64
			want := writeAt(t, db, off, 0x5A)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Settle()
			tok := db.Token(nil)
			if len(tok) != db.Shards() {
				t.Fatalf("token length %d, shards %d", len(tok), db.Shards())
			}

			buf := make([]byte, len(want))
			// The zero ReadOpts is exactly Read: primary-served.
			res, err := db.ReadAt(off, buf, repro.ReadOpts{})
			if err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("default ReadAt = %q, %v", buf, err)
			}
			if res.Replica != 0 || res.Seq != res.Primary {
				t.Fatalf("default ReadAt not primary-served: %+v", res)
			}

			// Every mode returns the committed bytes within its floor.
			for _, opts := range []repro.ReadOpts{
				{Mode: repro.ReadYourWrites, Token: tok},
				{Mode: repro.ReadBounded, Bound: 1 << 20},
				{Mode: repro.ReadQuorum},
			} {
				clear(buf)
				res, err := db.ReadAt(off, buf, opts)
				if err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("%v ReadAt = %q, %v", opts.Mode, buf, err)
				}
				if opts.Mode == repro.ReadYourWrites && res.Replica > 0 && res.Seq < tok[0] {
					t.Fatalf("ryw served below the token floor: %+v (token %d)", res, tok[0])
				}
				if opts.Mode == repro.ReadBounded && res.Primary-res.Seq > opts.Bound {
					t.Fatalf("bounded served outside the bound: %+v", res)
				}
				if opts.Mode == repro.ReadQuorum && res.Seq < tok[0] {
					t.Fatalf("quorum view missed an acked commit: %+v (token %d)", res, tok[0])
				}
			}

			// A settled backup serves a pinned read; a nonexistent replica
			// index refuses rather than falling back.
			if res, err := db.ReadAt(off, buf, repro.ReadOpts{Replica: 1}); err != nil || res.Replica != 1 {
				t.Fatalf("pinned read on healthy backup: %+v, %v", res, err)
			}
			if _, err := db.ReadAt(off, buf, repro.ReadOpts{Replica: 9}); !errors.Is(err, repro.ErrReplicaUnavailable) {
				t.Fatalf("pinned read on nonexistent replica = %v", err)
			}
		})
	}
}

// TestDBConformanceMidJoinNeverServes: a replica being rebuilt by the
// online repair holds a fuzzy copy — a pinned ReadAt must refuse it for
// the whole transfer, on every facade.
func TestDBConformanceMidJoinNeverServes(t *testing.T) {
	cfg := replicatedCfg()
	cfg.Safety = repro.OneSafe // commits must keep flowing while degraded
	for name, db := range conformanceTargets(t, cfg) {
		t.Run(name, func(t *testing.T) {
			const off = 64
			writeAt(t, db, off, 0x11)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Settle()
			if err := db.CrashBackup(0); err != nil {
				t.Fatal(err)
			}
			if err := db.RepairAsync(); err != nil {
				t.Fatal(err)
			}

			buf := make([]byte, 12)
			probes := 0
			for i := 0; i < 200000 && db.RepairProgress().Active; i++ {
				writeAt(t, db, off+64+(i%32)*16, byte(i))
				if db.RepairProgress().Joining > 0 {
					probes++
					// The repair drops the crashed backup and appends the
					// joiner after the survivors: it is replica index 2.
					if _, err := db.ReadAt(off, buf, repro.ReadOpts{Replica: 2}); !errors.Is(err, repro.ErrReplicaUnavailable) {
						t.Fatalf("mid-join replica served a pinned read: %v", err)
					}
					// The surviving enrolled backup keeps serving throughout.
					if res, err := db.ReadAt(off, buf, repro.ReadOpts{Replica: 1}); err != nil || res.Replica != 1 {
						t.Fatalf("survivor refused a pinned read mid-repair: %+v, %v", res, err)
					}
				}
				if i%100 == 0 {
					db.Settle()
				}
			}
			if db.RepairProgress().Active {
				t.Fatal("repair never completed")
			}
			if probes == 0 {
				t.Fatal("never observed the joiner mid-transfer")
			}
			db.Settle()
			if res, err := db.ReadAt(off, buf, repro.ReadOpts{Replica: 2}); err != nil || res.Replica != 2 {
				t.Fatalf("re-enrolled replica refuses pinned reads: %+v, %v", res, err)
			}
		})
	}
}

// TestDBConformanceTokenPortability: tokens are plain data, portable
// across deployments and shard counts — a token from shard A is always
// valid on shard B (missing elements are unconstrained, over-large floors
// just fall back to the primary), and sessions merge by element-wise max.
func TestDBConformanceTokenPortability(t *testing.T) {
	mk4, err := repro.NewSharded(replicatedCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	mk1, err := repro.New(replicatedCfg())
	if err != nil {
		t.Fatal(err)
	}
	shardSize := mk4.DBSize() / 4

	// Populate both deployments and capture their tokens.
	w4 := writeAt(t, mk4, 3*shardSize+64, 0xC4) // shard 3 of the wide one
	w1 := writeAt(t, mk1, 64, 0xC1)
	for _, db := range []repro.DB{mk4, mk1} {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.Settle()
	}
	tok4, tok1 := mk4.Token(nil), mk1.Token(nil)
	if len(tok4) != 4 || len(tok1) != 1 {
		t.Fatalf("token lengths %d/%d", len(tok4), len(tok1))
	}

	// The wide token on the narrow deployment: element 0 may exceed the
	// narrow committed counter — the read falls back to the primary, it
	// never errors.
	buf := make([]byte, 12)
	if _, err := mk1.ReadAt(64, buf, repro.ReadOpts{Mode: repro.ReadYourWrites, Token: tok4}); err != nil || !bytes.Equal(buf, w1) {
		t.Fatalf("wide token on narrow deployment: %q, %v", buf, err)
	}
	// The narrow token on shard 3 of the wide deployment: no element for
	// shard 3, so that shard is unconstrained.
	clear(buf)
	if _, err := mk4.ReadAt(3*shardSize+64, buf, repro.ReadOpts{Mode: repro.ReadYourWrites, Token: tok1}); err != nil || !bytes.Equal(buf, w4) {
		t.Fatalf("narrow token on wide deployment: %q, %v", buf, err)
	}
	// A nil token constrains nothing.
	clear(buf)
	if _, err := mk4.ReadAt(3*shardSize+64, buf, repro.ReadOpts{Mode: repro.ReadYourWrites}); err != nil || !bytes.Equal(buf, w4) {
		t.Fatalf("nil token: %q, %v", buf, err)
	}

	// Sessions merge tokens by element-wise max, growing as needed.
	got := repro.Token{5, 1}.Merge(repro.Token{2, 7, 3})
	want := repro.Token{5, 7, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Merge = %v, want %v", got, want)
	}

	// A token captured before an elastic grow stays valid after the
	// rebalance: the new shards have no element, so they serve
	// unconstrained, and the old elements still floor their shards.
	el, err := repro.NewSharded(replicatedCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantEl := writeAt(t, el, 64, 0xE1)
	if err := el.Flush(); err != nil {
		t.Fatal(err)
	}
	el.Settle()
	pre := el.Token(nil)
	if len(pre) != 2 {
		t.Fatalf("pre-grow token length %d, want 2", len(pre))
	}
	if _, err := el.AddShards(2); err != nil {
		t.Fatal(err)
	}
	if err := el.Rebalance(); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if _, err := el.ReadAt(64, buf, repro.ReadOpts{Mode: repro.ReadYourWrites, Token: pre}); err != nil || !bytes.Equal(buf, wantEl) {
		t.Fatalf("pre-grow token after rebalance: %q, %v", buf, err)
	}
	if post := el.Token(nil); len(post) != 4 {
		t.Fatalf("post-grow token length %d, want 4", len(post))
	}
}
