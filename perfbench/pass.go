package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"repro"
	"repro/internal/kvserver"
	"repro/internal/wal"
)

// pass is one set-up, measured and audited deployment.
type pass struct {
	w       workload
	in      *inputs
	l       *load
	e       *env
	callers []*caller
	setupS  []float64
	p       *phase
	mon     monitor

	lost     int   // acknowledged writes the audit could not read back
	auditErr error // the first of them
	restartS float64
	layers   values // traced passes only
}

// measure runs the timed phase and, when traced, reads the per-layer
// figures before anything else touches the deployment.
func (p *pass) measure(d time.Duration) error {
	e := p.e
	var srvBefore, cliBefore [2]uint64
	if e.srv != nil {
		st := e.srv.Stats()
		srvBefore = [2]uint64{st.Retries, st.Reopens}
	}
	for _, cl := range e.clients {
		cliBefore[0] += cl.Retries()
		cliBefore[1] += cl.Redials()
	}
	before := p.l.attempted.Load()
	p.p = closedLoop(e, p.callers, d, &p.mon)
	if p.mon.err != nil {
		return p.mon.err
	}
	if p.p.done.Load() < int64(p.w.simOps) {
		return fmt.Errorf("only %d ops completed, fewer than the %d the sim window needs", p.p.done.Load(), p.w.simOps)
	}
	if e.tr != nil {
		p.layers = p.layerValues(p.l.attempted.Load()-before, srvBefore, cliBefore)
	}
	return nil
}

// finish ends the pass with the workload's audit: read-back over the
// surface the load used, or a power failure, a torn WAL tail and a cold
// restart before reading back in-process.
func (p *pass) finish(seed int64) error {
	e := p.e
	var get func([]byte) ([]byte, error)
	switch {
	case p.w.durable:
		if err := p.powerFailRestart(seed); err != nil {
			return err
		}
		get = e.store.Get
	case p.w.served:
		get = e.clients[0].Get
	default:
		get = e.store.Get
	}
	p.lost, p.auditErr = audit(p.l, get)
	return nil
}

// audit reads every key back and checks it against the ledger: present,
// this key's value, a version no older than the newest acknowledged and
// no newer than the newest written.
func audit(l *load, get func([]byte) ([]byte, error)) (lost int, first error) {
	for k := range numKeys {
		want := l.acked[k].Load()
		v, err := get(l.in.keys[k])
		var got uint64
		if err == nil {
			got, err = l.in.checkValue(k, v)
		}
		if err == nil && got < want {
			err = fmt.Errorf("key %d: stale, version %d below acknowledged %d", k, got, want)
		}
		if err == nil && got > l.issued[k] {
			err = fmt.Errorf("key %d: version %d newer than any written (%d)", k, got, l.issued[k])
		}
		if err != nil {
			lost++
			if first == nil {
				first = fmt.Errorf("audit: %w", err)
			}
		}
	}
	return lost, first
}

// tornBytes is the length of the torn record appended to every WAL tail.
const tornBytes = 61

// powerFailRestart drains the server, kills every machine at once, tears
// each WAL tail (the unsynced bytes are dropped, as a lost page cache
// would, and a partial record is left past the synced offset), then
// cold-restarts over the same directory and times it.
func (p *pass) powerFailRestart(seed int64) error {
	e := p.e
	if err := e.stopServing(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := e.cluster.PowerFail(); err != nil {
		return fmt.Errorf("power fail: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range e.cluster.WALTails() {
		if err := tearTail(t, rng); err != nil {
			return fmt.Errorf("tear %s: %w", t.Path, err)
		}
	}
	e.cluster = nil // dead; nothing to close
	start := time.Now()
	c, err := repro.New(deployConfig(p.w, e.dir, false))
	if err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	e.cluster, e.dep = c, c
	if err := e.open(); err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	p.restartS = time.Since(start).Seconds()
	if p.layers != nil {
		rec := c.Durability().Recovery
		p.layers["wal.restart_replayed"] = float64(rec.Replayed)
		p.layers["wal.restart_truncated_bytes"] = float64(rec.TruncatedBytes)
	}
	return nil
}

// tearTail cuts a WAL segment back to its synced offset and appends a
// partial record of random bytes.
func tearTail(t repro.WALTail, rng *rand.Rand) error {
	f, err := os.OpenFile(t.Path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	junk := make([]byte, tornBytes)
	rng.Read(junk)
	err = f.Truncate(t.Synced)
	if err == nil {
		_, err = f.WriteAt(junk, t.Synced)
	}
	return errors.Join(err, f.Close())
}

// endToEnd computes the untraced metrics of the catalog.
func (p *pass) endToEnd() values {
	n := p.p.windows
	v := values{
		"get_p50_us":    windowed(p.callers, kindGet, n, 0.50),
		"get_p90_us":    windowed(p.callers, kindGet, n, 0.90),
		"put_p50_us":    windowed(p.callers, kindPut, n, 0.50),
		"put_p90_us":    windowed(p.callers, kindPut, n, 0.90),
		"sim_ops_per_s": float64(p.w.simOps) / p.p.simElapsed.Seconds(),
		"setup_s":       median(p.setupS),
	}
	v["ops_per_s"] = opsPerWindow(p.callers, n) / p.p.winDur.Seconds()
	return v
}

// notes are the end-to-end figures that are not on every workload, or
// are zero when all is well, so the catalog cannot bound them.
func (p *pass) notes() values {
	att := float64(p.l.attempted.Load())
	v := values{
		"failed_frac":       float64(p.l.failed.Load()) / att,
		"lost_acked_writes": float64(p.lost),
		"get_p99_us":        windowed(p.callers, kindGet, p.p.windows, 0.99),
		"put_p99_us":        windowed(p.callers, kindPut, p.p.windows, 0.99),
		"samples_get":       float64(len(merged(p.callers, kindGet, -1))),
		"samples_put":       float64(len(merged(p.callers, kindPut, -1))),
	}
	if p.w.durable {
		v["restart_s"] = p.restartS
	}
	if p.w.failover {
		v["unavail_ms"] = p.unavailMs()
		v["failover.crashes"] = float64(len(p.mon.heals))
	}
	return v
}

// unavailMs is the median over crashes of the time from a crash to the
// first acknowledgement of an op sent after it.
func (p *pass) unavailMs() float64 {
	ms := make([]float64, len(p.mon.unavail))
	for i, d := range p.mon.unavail {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// layerValues computes the per-layer catalog from the traced phase.
func (p *pass) layerValues(ops int64, srvBefore, cliBefore [2]uint64) values {
	e, ph := p.e, p.p
	tt := e.tr.totals()
	v := values{}
	us := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	per := func(x, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}

	// kvclient and kvserver.
	gets, puts := merged(p.callers, kindGet, -1), merged(p.callers, kindPut, -1)
	all := slices.Concat(gets, puts)
	slices.Sort(all)
	if e.srv != nil {
		var retries, redials uint64
		for _, cl := range e.clients {
			retries += cl.Retries()
			redials += cl.Redials()
		}
		v["kvclient.retries"] = float64(retries - cliBefore[0])
		v["kvclient.redials"] = float64(redials - cliBefore[1])
		v["kvclient.p999_us"] = percentileUs(all, 0.999)
		st := e.srv.Stats()
		v["kvserver.retry_responses"] = float64(st.Retries - srvBefore[0])
		v["kvserver.reopens"] = float64(st.Reopens - srvBefore[1])
		m := e.srv.Metrics()
		execGet := float64(m.Hist(kvserver.MetricOpLatency+"get.latency").Percentile(0.5)) / 1e3
		execPut := float64(m.Hist(kvserver.MetricOpLatency+"put.latency").Percentile(0.5)) / 1e3
		v["kvserver.exec_get_p50_us"] = execGet
		v["kvserver.exec_put_p50_us"] = execPut
		v["kvserver.wire_get_p50_us"] = percentileUs(gets, 0.5) - execGet
		v["kvserver.wire_put_p50_us"] = percentileUs(puts, 0.5) - execPut
	}

	// kv: exact spans in-process; per-put ratios from totals when served.
	kvPuts, kvGets := tt.count[spanKVPut], tt.count[spanKVGet]
	if p.w.served {
		kvPuts = int64(len(puts))
		v["kv.txns_per_put"] = per(tt.count[spanDBBegin], kvPuts)
		v["kv.bytes_written_per_put"] = per(tt.bytes[spanDBWrite], kvPuts)
	} else {
		v["kv.span_us"] = us(tt.total[spanKVPut]+tt.total[spanKVGet], kvPuts+kvGets)
		v["kv.put_self_us"] = us(tt.self[spanKVPut], kvPuts)
		v["kv.get_self_us"] = us(tt.self[spanKVGet], kvGets)
		v["kv.reads_per_get"] = per(tt.child[spanKVGet][spanDBRead], kvGets)
		v["kv.reads_per_put"] = per(tt.child[spanKVPut][spanDBRead], kvPuts)
		v["kv.txns_per_put"] = per(tt.child[spanKVPut][spanDBBegin], kvPuts)
		v["kv.bytes_written_per_put"] = per(tt.childBytes[spanKVPut][spanDBWrite], kvPuts)
	}

	// The repro facade: busy time per op.
	v["db.begin_us"] = us(tt.total[spanDBBegin], ops)
	v["db.write_us"] = us(tt.total[spanDBSetRange]+tt.total[spanDBWrite], ops)
	v["db.commit_us"] = us(tt.total[spanDBCommit]+tt.total[spanDBAbort], ops)
	v["db.read_us"] = us(tt.total[spanDBRead], ops)
	var busy int64
	for k := spanDBBegin; k < numSpanKinds; k++ {
		busy += tt.total[k]
	}
	v["db.busy_frac"] = float64(busy) / float64(ph.t1.Sub(ph.t0))

	// Sim counts since the phase's measurement reset.
	c := e.cluster
	commits := c.Stats().Commits
	el := c.Elapsed()
	tr := c.NetTraffic()
	v["sim.us_per_commit"] = us(int64(el), commits)
	v["san.modified_bytes_per_commit"] = per(tr.ModifiedBytes, commits)
	v["san.meta_bytes_per_commit"] = per(tr.MetaBytes, commits)

	// The disk tier, from the deployment's registry. These move put_p50_us
	// and ops_per_s on served-durable-writes; wal.restart_* (set by
	// powerFailRestart) move restart_s.
	if p.w.durable {
		m := c.Metrics()
		v["wal.commit_us"] = us(tt.total[spanDBCommit], tt.count[spanDBCommit])
		v["wal.fsyncs_per_commit"] = per(int64(m.Counter(wal.MetricFsyncs)), commits)
		v["wal.fsync_bytes_per_commit"] = per(int64(m.Counter(wal.MetricFsyncBytes)), commits)
	}

	// Failover, on the sim clock (the autopilot's event log) and the wall
	// clock (the monitor).
	if p.w.failover {
		v["san.sync_bytes"] = float64(tr.SyncBytes)
		v["san.control_bytes_per_s"] = float64(tr.ControlBytes) / el.Seconds()
		var takeover, reopen, restore []float64
		for _, h := range p.mon.heals {
			takeover = append(takeover, float64(h.takenOver.Sub(h.crash))/1e6)
			if !h.reopened.IsZero() {
				reopen = append(reopen, float64(h.reopened.Sub(h.crash))/1e6)
			}
			if !h.restored.IsZero() {
				restore = append(restore, h.restored.Sub(h.crash).Seconds())
			}
		}
		v["failover.crashes"] = float64(len(p.mon.heals))
		v["failover.takeover_ms"] = median(takeover)
		v["failover.heal_ms"] = median(reopen)
		v["repair.restore_s"] = median(restore)
		var mttd []float64
		for _, ev := range c.AutopilotEvents() {
			if ev.Kind == "primary" {
				mttd = append(mttd, float64(ev.MTTD())/1e3)
			}
		}
		v["failover.mttd_sim_us"] = median(mttd)
	}
	return v
}
