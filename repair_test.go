package repro_test

import (
	"errors"
	"testing"
	"time"

	"repro"
)

func durNS(ns int64) time.Duration { return time.Duration(ns) * time.Nanosecond }

// TestFacadeRepairAsync drives the online repair through the public API:
// crash, fail over, RepairAsync, keep committing while the transfer is in
// flight, watch RepairProgress to completion, and verify the healed
// cluster fails over again with nothing lost.
func TestFacadeRepairAsync(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RepairAsync(); !errors.Is(err, repro.ErrNotRepairable) {
		t.Fatalf("repair of a healthy cluster: %v", err)
	}

	commit := func(slot int, payload string) {
		t.Helper()
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(slot*32, 32))
		buf := make([]byte, 32)
		copy(buf, payload)
		must(t, tx.Write(slot*32, buf))
		must(t, tx.Commit())
	}
	for i := 0; i < 20; i++ {
		commit(i, "before")
	}
	c.Settle()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	must(t, c.RepairAsync())

	p := c.RepairProgress()
	if !p.Active || p.BytesPlanned == 0 {
		t.Fatalf("repair not in flight after RepairAsync: %+v", p)
	}
	syncTraffic := c.NetTraffic().SyncBytes
	for i := 0; i < 500000 && c.RepairProgress().Active; i++ {
		commit(20+i%1000, "during")
		if i%100 == 0 {
			c.Settle()
		}
	}
	p = c.RepairProgress()
	if p.Active {
		t.Fatalf("repair never completed: %+v", p)
	}
	if p.BytesShipped == 0 || p.Elapsed <= 0 {
		t.Fatalf("completed repair reports no work: %+v", p)
	}
	if got := c.NetTraffic().SyncBytes; got <= syncTraffic {
		t.Fatalf("state-transfer traffic not accounted in NetTraffic: %d", got)
	}
	if c.Backups() != 2 {
		t.Fatalf("repair left %d backups, want 2", c.Backups())
	}

	// The healed cluster survives another crash with everything intact.
	c.Settle()
	total := c.Committed()
	must(t, c.CrashPrimary())
	must(t, c.Failover())
	if got := c.Committed(); got != total {
		t.Fatalf("failover after online repair lost commits: %d of %d", got, total)
	}
	buf := make([]byte, 6)
	c.ReadRaw(0, buf)
	if string(buf) != "before" {
		t.Fatalf("pre-crash data lost: %q", buf)
	}
}

// TestShardedRepairAsync: per-shard online repair through the sharded
// front-end — the other shards keep serving while one heals.
func TestShardedRepairAsync(t *testing.T) {
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  testDB,
		Backups: 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	commitAt := func(off int) {
		t.Helper()
		tx, err := sc.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(off, 8))
		must(t, tx.Write(off, []byte("sharded!")))
		must(t, tx.Commit())
	}
	for i := 0; i < 4; i++ {
		commitAt(i * sc.ShardSize())
	}
	sc.Settle()
	must(t, sc.CrashPrimary(1))
	must(t, sc.Failover(1))
	must(t, sc.RepairAsync(1))
	if !sc.RepairProgress(1).Active {
		t.Fatal("shard 1 repair not in flight")
	}
	if sc.RepairProgress(0).Active {
		t.Fatal("shard 0 reports a repair it never started")
	}
	// Other shards serve while shard 1 heals; shard 1's own stream pumps
	// its transfer along.
	for i := 0; i < 200000 && sc.RepairProgress(1).Active; i++ {
		commitAt((i % 4) * sc.ShardSize())
		if i%100 == 0 {
			sc.Settle()
		}
	}
	if p := sc.RepairProgress(1); p.Active {
		t.Fatalf("shard repair never completed: %+v", p)
	}
	if sc.Backups(1) != 1 {
		t.Fatalf("shard 1 has %d backups after repair, want 1", sc.Backups(1))
	}
	if err := sc.RepairAsync(9); !errors.Is(err, repro.ErrNoSuchShard) {
		t.Fatalf("out-of-range shard repair: %v", err)
	}
}

// TestSettleGraceKnob: the quiesce duration is a Config knob, and the
// derived default still closes the 1-safe window.
func TestSettleGraceKnob(t *testing.T) {
	for _, grace := range []int64{0, 50_000} { // derived, explicit 50us
		c, err := repro.New(repro.Config{
			Version:     repro.V3InlineLog,
			Backup:      repro.ActiveBackup,
			DBSize:      testDB,
			SettleGrace: durNS(grace),
		})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		must(t, tx.SetRange(0, 8))
		must(t, tx.Write(0, []byte("settled!")))
		must(t, tx.Commit())
		c.Settle()
		must(t, c.CrashPrimary())
		must(t, c.Failover())
		if got := c.Committed(); got != 1 {
			t.Fatalf("grace %dns: settled commit lost (%d)", grace, got)
		}
	}
}
