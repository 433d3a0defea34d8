package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/tpc"
	"repro/kv"
)

// quorumK3 is the benchmark's deployment: Version 3 with an active backup
// group of K=3 replicas committing at quorum.
var quorumK3 = repro.Config{
	Version: repro.V3InlineLog,
	Backup:  repro.ActiveBackup,
	DBSize:  8 << 20,
	Backups: 3,
	Safety:  repro.QuorumSafe,
}

// TestCommitPathZeroAllocs pins the steady-state Debit-Credit commit path
// to zero allocations per transaction: the recycled vista.Tx, the redo
// channel's staged buffers, the accessor word scratch and the batched ack
// scratch together mean a warmed transaction touches the allocator not at
// all. Any regression here is a performance bug on the hottest path in the
// repository. It holds for the single-backup pair and for the K=3 quorum
// group, whose commit also sorts the acknowledgement times, and across
// four groups, where a transaction spans several of them (the pooled
// transaction's per-group open table, closure-free routing). The
// instrumented variants attach the obs registries (Config.Metrics) and
// must hold the same zero: instruments are plain atomics recording into
// preallocated buckets, so observability costs cycles, never allocations.
func TestCommitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	pair := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  8 << 20,
	}
	for _, base := range []struct {
		prefix string
		cfg    repro.Config
		shards int
	}{{"", pair, 1}, {"quorum-k3-", quorumK3, 1}, {"sharded4-", pair, 4}} {
		for _, metrics := range []bool{false, true} {
			name := base.prefix + "bare"
			if metrics {
				name = base.prefix + "instrumented"
			}
			t.Run(name, func(t *testing.T) {
				cfg := base.cfg
				cfg.Metrics = metrics
				var c *repro.Cluster
				var err error
				if base.shards == 1 {
					c, err = repro.New(cfg)
				} else {
					c, err = repro.NewSharded(cfg, base.shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				w, err := tpc.NewDebitCredit(8 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Populate(c.Load); err != nil {
					t.Fatal(err)
				}
				r := tpc.NewRand(1)
				i := int64(0)
				txn := func() {
					tx, err := c.Begin()
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Txn(r, tx, i); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					i++
				}
				// Warm every pool and slice capacity on the path (ring
				// scratch, redo staging, write-buffer tables) before
				// counting.
				for k := 0; k < 2000; k++ {
					txn()
				}
				if allocs := testing.AllocsPerRun(500, txn); allocs != 0 {
					t.Fatalf("steady-state Debit-Credit commit path (%s) allocates %.1f times per txn, want 0", name, allocs)
				}
			})
		}
	}
}

// TestKVPathZeroAllocs pins the key-value hot path on the benchmark's
// deployment to zero allocations per operation: a warmed Store.Put
// (probe, out-of-place record, bucket flip, one quorum commit) and a
// GetAppend into a reused buffer.
func TestKVPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c, err := repro.New(quorumK3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.Open(c)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1000
	key := make([][]byte, keys)
	val := make([]byte, 128)
	for i := range key {
		key[i] = []byte(fmt.Sprintf("key%06d", i))
		if err := s.Put(key[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	put := func() {
		val[0] = byte(i)
		if err := s.Put(key[i%keys], val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	dst := make([]byte, 0, len(val))
	get := func() {
		var err error
		if dst, err = s.GetAppend(key[i%keys], dst[:0]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for k := 0; k < 2000; k++ {
		put()
		get()
	}
	if allocs := testing.AllocsPerRun(500, put); allocs != 0 {
		t.Errorf("steady-state kv Put at K=3 quorum allocates %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, get); allocs != 0 {
		t.Errorf("steady-state kv GetAppend at K=3 quorum allocates %.1f times per op, want 0", allocs)
	}
}

// TestShardedCommitPathZeroAllocs pins the sharded front-end's
// single-shard transaction path (pooled transaction, closure-free routing)
// to zero allocations per transaction — with and without per-shard obs
// registries attached.
func TestShardedCommitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for _, metrics := range []bool{false, true} {
		name := "bare"
		if metrics {
			name = "instrumented"
		}
		t.Run(name, func(t *testing.T) {
			sc, err := repro.NewSharded(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  8 << 20,
				Metrics: metrics,
			}, 4)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 64)
			for i := range payload {
				payload[i] = byte(i + 1)
			}
			slots := sc.ShardSize() / 128
			i := 0
			txn := func() {
				off := (i%4)*sc.ShardSize() + (i/4%slots)*128
				i++
				tx, err := sc.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.SetRange(off, 64); err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(off, payload); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 2000; k++ {
				txn()
			}
			if allocs := testing.AllocsPerRun(500, txn); allocs != 0 {
				t.Fatalf("sharded commit path (%s) allocates %.1f times per txn, want 0", name, allocs)
			}
		})
	}
}
