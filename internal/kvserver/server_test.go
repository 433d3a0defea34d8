package kvserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/kvwire"
	"repro/kv"
	"repro/kvclient"
)

// serve builds a deployment, a store, a Server and a live listener.
func serve(t *testing.T, cfg repro.Config) (*Server, repro.Admin, string) {
	t.Helper()
	if cfg.Version == 0 {
		cfg.Version = repro.V3InlineLog
	}
	if cfg.Backup == 0 {
		cfg.Backup = repro.ActiveBackup
	}
	if cfg.DBSize == 0 {
		cfg.DBSize = 4 << 20
	}
	var db repro.DB
	db, err := repro.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	admin, _ := db.(repro.Admin)
	return srv, admin, l.Addr().String()
}

// TestServerConcurrentClients is the end-to-end zero-loss contract over
// real sockets: concurrent clients stream versioned writes, the primary
// is crashed mid-load, the clients ride out the failover on retries,
// the server drains gracefully — and after a re-serve on a fresh
// listener every acknowledged put is readable at or after its acked
// version.
func TestServerConcurrentClients(t *testing.T) {
	// K=3 at quorum keeps the safety level through the loss of the
	// primary; the autopilot performs the promotion unattended.
	srv, admin, addr := serve(t, repro.Config{
		Backups: 3,
		Safety:  repro.QuorumSafe,
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 500 * time.Microsecond,
			AutoFailover:    true,
		},
	})

	const (
		clients    = 12
		perClient  = 60 // keys per client, written twice (two versions)
		crashAfter = 200
	)
	var (
		acked    [clients * perClient]atomic.Int64 // newest acked version per key
		ackedOps atomic.Int64
		wg       sync.WaitGroup
	)
	for i := range acked {
		acked[i].Store(-1)
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		for ackedOps.Load() < crashAfter {
			time.Sleep(100 * time.Microsecond)
		}
		if err := admin.CrashPrimary(); err != nil {
			t.Errorf("crash injection: %v", err)
		}
	}()

	key := func(k int) []byte { return []byte(fmt.Sprintf("key%06d", k)) }
	val := func(k int, ver int64) []byte { return []byte(fmt.Sprintf("val-%d-ver%d", k, ver)) }
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := kvclient.Dial(addr, kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
			defer cl.Close()
			for ver := int64(0); ver < 2; ver++ {
				for i := 0; i < perClient; i++ {
					k := c*perClient + i // disjoint ranges: one writer per key
					if err := cl.Put(key(k), val(k, ver)); err != nil {
						t.Errorf("client %d: put key %d ver %d: %v", c, k, ver, err)
						return
					}
					acked[k].Store(ver)
					ackedOps.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	<-crashed
	if srv.Stats().Reopens == 0 {
		t.Error("server never reopened the store (crash not observed?)")
	}

	// Graceful drain, then serve the same store on a fresh listener —
	// the restart a rolling deploy would do.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv2 := New(srv.store, Config{Logf: t.Logf})
	defer srv2.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l)

	audit := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 2, RetryBudget: 30 * time.Second})
	defer audit.Close()
	for k := range acked {
		want := acked[k].Load()
		if want < 0 {
			continue
		}
		got, err := audit.Get(key(k))
		if err != nil {
			t.Errorf("acked key %d (ver %d) unreadable after drain+reconnect: %v", k, want, err)
			continue
		}
		if !bytes.Equal(got, val(k, want)) && !bytes.Equal(got, val(k, want+1)) {
			t.Errorf("acked key %d: read %q, want version >= %d", k, got, want)
		}
	}
}

// TestServerGarbageFrames throws malformed bytes at the listener —
// random junk, a huge declared length, truncated frames, an unknown
// opcode — and requires StatusBad + connection close for each, with a
// well-formed client still being served throughout.
func TestServerGarbageFrames(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()

	good := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer good.Close()
	if err := good.Put([]byte("canary"), []byte("alive")); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"http", []byte("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")},
		{"zero-length", []byte{0, 0, 0, 0}},
		{"huge-length", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}},
		{"unknown-opcode", kvwire.AppendEmpty(nil, 0x7f)},
		{"truncated-put", func() []byte {
			// Declares a 100-byte body, delivers 3, then closes.
			b := []byte{0, 0, 0, 100, byte(kvwire.OpPut), 0}
			return b
		}()},
		{"trailing-bytes", func() []byte {
			b := kvwire.AppendGet(nil, []byte("k"))
			b = append(b, 0xEE) // extra byte inside the declared body
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.data); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			// The server either answers StatusBad and closes, or (for a
			// declared-but-undelivered body) just waits; close our side
			// and expect no hang either way.
			buf := make([]byte, 0, 64)
			buf, err = kvwire.ReadFrame(c, buf, kvwire.MaxFrame)
			if err == nil {
				if buf[0] != kvwire.StatusBad {
					t.Fatalf("garbage answered with status %d, want StatusBad", buf[0])
				}
				// After StatusBad the server closes: the next read ends.
				if _, err := kvwire.ReadFrame(c, buf, kvwire.MaxFrame); err == nil {
					t.Fatal("connection still serving after StatusBad")
				}
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, kvwire.ErrFrame) {
				// truncated-put: the server is still waiting for the
				// declared body; our deferred close unblocks it.
				var nerr net.Error
				if !errors.As(err, &nerr) || !nerr.Timeout() {
					t.Fatalf("unexpected read result: %v", err)
				}
			}
		})
	}

	// The well-formed client rode through all of it.
	v, err := good.Get([]byte("canary"))
	if err != nil || string(v) != "alive" {
		t.Fatalf("well-formed client disturbed by garbage peers: %q, %v", v, err)
	}
	if srv.Stats().BadFrames == 0 {
		t.Error("server counted no bad frames")
	}
}

// crashMidTx wraps a Cluster so that, once armed, the next transaction's
// first Write crashes the primary under it — a crash landing inside a
// served Put.
type crashMidTx struct {
	*repro.Cluster
	armed atomic.Bool
}

func (d *crashMidTx) Begin() (repro.Tx, error) {
	tx, err := d.Cluster.Begin()
	if err != nil || !d.armed.CompareAndSwap(true, false) {
		return tx, err
	}
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

// TestServerCrashMidPutRetries: a Put whose primary crashes inside the
// store's transaction is answered StatusRetry — the crash is retryable,
// not a terminal error — and the healer fails the deployment over so the
// client's retry lands.
func TestServerCrashMidPutRetries(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  1 << 20,
		Backups: 3,
		Safety:  repro.QuorumSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := &crashMidTx{Cluster: c}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	db.armed.Store(true)
	if _, err := conn.Write(kvwire.AppendPut(nil, []byte("k"), []byte("v"))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := kvwire.ReadFrame(conn, nil, kvwire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != kvwire.StatusRetry {
		t.Fatalf("Put crashed mid-transaction answered status %d (%q), want StatusRetry", resp[0], resp[1:])
	}

	client := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 1})
	defer client.Close()
	if err := client.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatalf("Put after the heal: %v", err)
	}
	if v, err := client.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("Get after the heal = %q, %v", v, err)
	}
}

// TestServerScanAndTxn exercises the remaining opcodes through the real
// client: a multi-key transaction lands atomically and Scan pages the
// keyspace back.
func TestServerScanAndTxn(t *testing.T) {
	srv, _, addr := serve(t, repro.Config{Backups: 1})
	defer srv.Close()
	cl := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	defer cl.Close()

	ops := make([]kvclient.Op, 20)
	for i := range ops {
		ops[i] = kvclient.Op{Key: []byte(fmt.Sprintf("t%03d", i)), Val: []byte(fmt.Sprintf("v%03d", i))}
	}
	if err := cl.Txn(ops); err != nil {
		t.Fatalf("txn: %v", err)
	}
	entries, err := cl.Scan(nil, 100)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(entries) != 20 {
		t.Fatalf("scan returned %d entries, want 20", len(entries))
	}
	// Delete half through a txn, confirm.
	del := make([]kvclient.Op, 10)
	for i := range del {
		del[i] = kvclient.Op{Key: []byte(fmt.Sprintf("t%03d", i)), Delete: true}
	}
	if err := cl.Txn(del); err != nil {
		t.Fatalf("delete txn: %v", err)
	}
	if _, err := cl.Get([]byte("t000")); !errors.Is(err, kvclient.ErrNotFound) {
		t.Fatalf("deleted key Get = %v, want ErrNotFound", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Keys != 10 {
		t.Fatalf("stats.Keys = %d, want 10", st.Keys)
	}
}

// TestServerShardedStats: a server fronting a sharded deployment reports
// the shard count and placement epoch over the wire, and an elastic grow
// + rebalance underneath advances the epoch without losing served keys.
func TestServerShardedStats(t *testing.T) {
	db, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	cl := kvclient.Dial(l.Addr().String(), kvclient.Options{Conns: 1})
	defer cl.Close()

	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.PlacementEpoch != 1 {
		t.Fatalf("stats = shards %d epoch %d, want 2/1", st.Shards, st.PlacementEpoch)
	}

	if _, err := db.AddShards(2); err != nil {
		t.Fatal(err)
	}
	if err := db.Rebalance(); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 {
		t.Fatalf("stats.Shards = %d after grow, want 4", st.Shards)
	}
	if st.PlacementEpoch < 2 {
		t.Fatalf("stats.PlacementEpoch = %d after rebalance, want > 1", st.PlacementEpoch)
	}
	for i := 0; i < 50; i++ {
		v, err := cl.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("key %d after rebalance: %q, %v", i, v, err)
		}
	}
}

// TestNextBackoff pins the healer's retry policy: exponential doubling
// from the base, a hard cap, and jitter bounded to ±25% of the current
// delay — never zero, never past 125% of the cap.
func TestNextBackoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	// Doubling walk: base, 2x, 4x, ... until the cap, then flat.
	cur := healBackoffBase
	want := healBackoffBase
	for i := 0; i < 12; i++ {
		sleep, next := nextBackoff(cur, rng)
		lo, hi := want-want/4, want+want/2
		if sleep < lo || sleep > hi {
			t.Fatalf("round %d: sleep %v outside [%v, %v]", i, sleep, lo, hi)
		}
		want *= 2
		if want > healBackoffCap {
			want = healBackoffCap
		}
		if next != want {
			t.Fatalf("round %d: next backoff %v, want %v", i, next, want)
		}
		cur = next
	}
	if cur != healBackoffCap {
		t.Fatalf("walk never reached the cap: %v", cur)
	}

	// Out-of-range inputs clamp instead of exploding.
	if sleep, next := nextBackoff(0, rng); sleep <= 0 || next != 2*healBackoffBase {
		t.Fatalf("zero input: sleep=%v next=%v", sleep, next)
	}
	if _, next := nextBackoff(time.Hour, rng); next != healBackoffCap {
		t.Fatalf("huge input: next=%v, want cap %v", next, healBackoffCap)
	}

	// Jitter actually spreads: across many draws at the cap we should
	// see at least two distinct sleeps.
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		sleep, _ := nextBackoff(healBackoffCap, rng)
		seen[sleep] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced a constant sleep: %v", seen)
	}
}
