package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/kv"
)

// newCluster builds a small replicated single-group deployment.
func newCluster(t testing.TB, cfg repro.Config) repro.DB {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 1 << 20
	}
	c, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newSharded(t testing.TB, shards int, cfg repro.Config) repro.DB {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 1 << 20
	}
	sc, err := repro.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// deployments returns the facade matrix the kv layer must behave
// identically on.
func deployments(t *testing.T) map[string]repro.DB {
	return map[string]repro.DB{
		"cluster":  newCluster(t, repro.Config{}),
		"sharded1": newSharded(t, 1, repro.Config{}),
		"sharded4": newSharded(t, 4, repro.Config{}),
	}
}

func TestPutGetDelete(t *testing.T) {
	for name, db := range deployments(t) {
		t.Run(name, func(t *testing.T) {
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("missing")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if err := s.Put([]byte("alice"), []byte("100")); err != nil {
				t.Fatal(err)
			}
			v, err := s.Get([]byte("alice"))
			if err != nil || string(v) != "100" {
				t.Fatalf("Get(alice) = %q, %v", v, err)
			}
			// Overwrite.
			if err := s.Put([]byte("alice"), []byte("250")); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get([]byte("alice")); string(v) != "250" {
				t.Fatalf("after overwrite Get = %q", v)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
			if err := s.Delete([]byte("alice")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("alice")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
			}
			if err := s.Delete([]byte("alice")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("double Delete = %v, want ErrNotFound", err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len after delete = %d", s.Len())
			}
		})
	}
}

func TestValidation(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(nil, []byte("v")); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("empty key Put = %v", err)
	}
	if _, err := s.Get(nil); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("empty key Get = %v", err)
	}
	big := make([]byte, s.SlotPayload()+1)
	if err := s.Put([]byte("k"), big[:len(big)-1]); !errors.Is(err, kv.ErrTooLarge) {
		t.Fatalf("oversized Put (key+val) = %v", err)
	}
	// Exactly at the payload bound fits.
	if err := s.Put(big[:8], big[8:s.SlotPayload()]); err != nil {
		t.Fatalf("payload-sized Put = %v", err)
	}
}

func TestManyKeysAndReopen(t *testing.T) {
	db := newCluster(t, repro.Config{DBSize: 1 << 20})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i*7)) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Delete a third, overwrite a third.
	for i := 0; i < n; i += 3 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	for i := 1; i < n; i += 3 {
		if err := s.Put(key(i), []byte("updated")); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}

	verify := func(s *kv.Store) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, err := s.Get(key(i))
			switch {
			case i%3 == 0:
				if !errors.Is(err, kv.ErrNotFound) {
					t.Fatalf("deleted key %d: got %q, %v", i, v, err)
				}
			case i%3 == 1:
				if err != nil || string(v) != "updated" {
					t.Fatalf("overwritten key %d: got %q, %v", i, v, err)
				}
			default:
				if err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d: got %q, %v", i, v, err)
				}
			}
		}
	}
	verify(s)
	want := s.Len()

	// Reopen over the same bytes: the index is recovered, not recreated.
	s2, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != want {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), want)
	}
	verify(s2)
}

func TestTombstoneReuse(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{DBSize: 256 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	// Churn far more operations than the store has slots: deletes must
	// free slots and inserts must reuse tombstoned buckets.
	slots := s.Slots()
	for i := 0; i < 4*slots; i++ {
		k := []byte(fmt.Sprintf("churn%05d", i))
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatalf("Put %d (slots=%d): %v", i, slots, err)
		}
		if err := s.Delete(k); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after churn = %d", s.Len())
	}
}

func TestFull(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{DBSize: 64 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	var filled int
	for i := 0; ; i++ {
		err := s.Put([]byte(fmt.Sprintf("fill%06d", i)), bytes.Repeat([]byte("v"), 100))
		if errors.Is(err, kv.ErrFull) {
			filled = i
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 1<<20 {
			t.Fatal("store never filled")
		}
	}
	if filled != s.Slots() {
		t.Fatalf("filled %d keys, slot capacity %d", filled, s.Slots())
	}
	// Deleting one key makes room for exactly one more.
	if err := s.Delete([]byte("fill000000")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("replacement"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("overflow"), []byte("v")); !errors.Is(err, kv.ErrFull) {
		t.Fatalf("Put past capacity = %v", err)
	}
	// Updates are out of place, so at exact slot capacity even an
	// overwrite of an existing key needs a free slot — the documented
	// ErrFull contract.
	if err := s.Put([]byte("replacement"), []byte("w")); !errors.Is(err, kv.ErrFull) {
		t.Fatalf("overwrite at capacity = %v", err)
	}
}

func TestScan(t *testing.T) {
	s, err := kv.Open(newCluster(t, repro.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("scan%03d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A full scan visits every live entry exactly once.
	got := map[string]string{}
	n, err := s.Scan(nil, 1<<30, func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("scan visited %d entries (%d distinct), want %d", n, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan[%s] = %q, want %q", k, got[k], v)
		}
	}
	// A bounded scan from a seed key visits exactly limit entries.
	n, err = s.Scan([]byte("scan010"), 5, func(k, v []byte) error { return nil })
	if err != nil || n != 5 {
		t.Fatalf("bounded scan = %d, %v", n, err)
	}
	// A callback error stops the scan.
	stop := errors.New("stop")
	n, err = s.Scan(nil, 1<<30, func(k, v []byte) error { return stop })
	if !errors.Is(err, stop) || n != 1 {
		t.Fatalf("aborted scan = %d, %v", n, err)
	}
}

func TestTxn(t *testing.T) {
	for name, db := range deployments(t) {
		t.Run(name, func(t *testing.T) {
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}

			// Buffered reads-your-writes, delete shadowing, abort.
			txn, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Put([]byte("b"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if v, err := txn.Get([]byte("b")); err != nil || string(v) != "2" {
				t.Fatalf("txn read-your-write = %q, %v", v, err)
			}
			if err := txn.Delete([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("txn shadowed delete Get = %v", err)
			}
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("b")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatal("aborted txn leaked a write")
			}
			if v, _ := s.Get([]byte("a")); string(v) != "1" {
				t.Fatal("aborted txn leaked a delete")
			}

			// Commit applies everything: puts, an overwrite, a delete,
			// and a delete of an absent key (no-op).
			txn, err = s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := txn.Put([]byte(fmt.Sprintf("t%02d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Put([]byte("a"), []byte("overwritten")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Delete([]byte("absent")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get([]byte("a")); string(v) != "overwritten" {
				t.Fatalf("txn overwrite lost: %q", v)
			}
			for i := 0; i < 20; i++ {
				if v, err := s.Get([]byte(fmt.Sprintf("t%02d", i))); err != nil || string(v) != "v" {
					t.Fatalf("txn put t%02d = %q, %v", i, v, err)
				}
			}
			if err := txn.Commit(); !errors.Is(err, kv.ErrTxnDone) {
				t.Fatalf("double commit = %v", err)
			}

			// Put-then-delete of the same key inside one txn: latest wins.
			txn, _ = s.Begin()
			txn.Put([]byte("ephemeral"), []byte("x"))
			txn.Delete([]byte("ephemeral"))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get([]byte("ephemeral")); !errors.Is(err, kv.ErrNotFound) {
				t.Fatal("put-then-delete left the key behind")
			}
		})
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	db := newCluster(t, repro.Config{})
	if err := db.Load(0, []byte("this is not a kv store header, clearly")); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Open(db); !errors.Is(err, kv.ErrBadFormat) {
		t.Fatalf("Open over garbage = %v, want ErrBadFormat", err)
	}
}

func TestTooSmall(t *testing.T) {
	// 8 KB cannot hold the minimum geometry at a huge slot size.
	db := newCluster(t, repro.Config{DBSize: 8 << 10})
	if _, err := kv.OpenWith(db, kv.Options{SlotSize: 8 << 10}); !errors.Is(err, kv.ErrTooSmall) {
		t.Fatalf("Open on tiny db = %v, want ErrTooSmall", err)
	}
}

// TestBrokenAfterObservedCrash: once any operation sees the deployment
// crashed, the Store refuses further work with ErrBroken — its free list
// may be ahead of the survivor's bytes — until a fresh Open.
func TestBrokenAfterObservedCrash(t *testing.T) {
	db := newCluster(t, repro.Config{Backups: 1})
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Settle() // close the 1-safe window so the crash loses nothing
	admin := db.(repro.Admin)
	if err := admin.CrashPrimary(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Get on crashed deployment = %v", err)
	}
	if err := admin.Failover(); err != nil {
		t.Fatal(err)
	}
	// The old handle stays broken even though the deployment serves
	// again; a fresh Open recovers.
	if err := s.Put([]byte("k2"), []byte("v2")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Put on broken store = %v", err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Get on broken store = %v", err)
	}
	s2, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("reopened Get = %q, %v", v, err)
	}
}

// crashMidTx wraps a Cluster so that, once armed, the next transaction's
// first Write crashes the primary under it: the crash lands inside a
// Put, between Begin and Commit.
type crashMidTx struct {
	*repro.Cluster
	armed bool
}

func (d *crashMidTx) Begin() (repro.Tx, error) {
	tx, err := d.Cluster.Begin()
	if err != nil || !d.armed {
		return tx, err
	}
	d.armed = false
	return &crashingTx{Tx: tx, db: d.Cluster}, nil
}

type crashingTx struct {
	repro.Tx
	db      *repro.Cluster
	crashed bool
}

func (t *crashingTx) Write(off int, src []byte) error {
	if !t.crashed {
		t.crashed = true
		if err := t.db.CrashPrimary(); err != nil {
			return err
		}
	}
	return t.Tx.Write(off, src)
}

// TestCrashMidPut: a Put whose primary crashes mid-transaction reports
// repro.ErrCrashed, and the Store marks itself broken, so the next
// operation gets ErrBroken instead of allocating from an index the
// survivor may not match.
func TestCrashMidPut(t *testing.T) {
	db := &crashMidTx{Cluster: newCluster(t, repro.Config{Backups: 3, Safety: repro.QuorumSafe}).(*repro.Cluster)}
	s, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.armed = true
	if err := s.Put([]byte("k2"), []byte("v2")); !errors.Is(err, repro.ErrCrashed) {
		t.Fatalf("Put crashed mid-transaction = %v, want ErrCrashed", err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, kv.ErrBroken) {
		t.Fatalf("Get after a crashed Put = %v, want ErrBroken", err)
	}
	if err := db.Failover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after Reopen = %q, %v", v, err)
	}
	if _, err := s.Get([]byte("k2")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("crashed Put visible after failover: %v", err)
	}
}

// TestCrashFailoverRecovery is the deterministic core of the committed-
// prefix guarantee at key level: acked puts at quorum survive a primary
// crash, failover, and re-Open.
func TestCrashFailoverRecovery(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) repro.DB{
		"cluster": func(t *testing.T) repro.DB { return newCluster(t, repro.Config{Backups: 2, Safety: repro.QuorumSafe}) },
		"sharded4": func(t *testing.T) repro.DB {
			return newSharded(t, 4, repro.Config{Backups: 2, Safety: repro.QuorumSafe})
		},
	} {
		t.Run(name, func(t *testing.T) {
			db := mk(t)
			s, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			admin := db.(repro.Admin)
			for shard := 0; shard < db.Shards(); shard++ {
				if err := admin.CrashPrimary(shard); err != nil {
					t.Fatal(err)
				}
				if err := admin.Failover(shard); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := kv.Open(db)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Len() != n {
				t.Fatalf("recovered Len = %d, want %d", s2.Len(), n)
			}
			for i := 0; i < n; i++ {
				v, err := s2.Get([]byte(fmt.Sprintf("k%05d", i)))
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("recovered Get k%05d = %q, %v", i, v, err)
				}
			}
		})
	}
}
