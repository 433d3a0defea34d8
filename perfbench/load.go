package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/kv"
)

// kvAPI is what a caller drives: kv.Store in-process, a kvclient.Client
// over the wire.
type kvAPI interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
}

// tracedStore opens a kv span around each kv.Store call; the db spans
// the tracer records meanwhile become its children.
type tracedStore struct {
	s  *kv.Store
	t  *tracer
	op uint64
}

func (s *tracedStore) Put(key, value []byte) error {
	s.op++
	s.t.openOp(spanKVPut, s.op)
	err := s.s.Put(key, value)
	s.t.closeOp()
	return err
}

func (s *tracedStore) Get(key []byte) ([]byte, error) {
	s.op++
	s.t.openOp(spanKVGet, s.op)
	v, err := s.s.Get(key)
	s.t.closeOp()
	return v, err
}

const (
	kindGet = 0
	kindPut = 1
)

// load is the state one run's callers share: the inputs, the audit
// ledger and the counters.
type load struct {
	w  workload
	in *inputs
	// acked[k] is the newest acknowledged version of key k; issued[k]
	// the newest version ever sent (written only by k's owner).
	acked  []atomic.Uint64
	issued []uint64

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error
}

func newLoad(w workload, in *inputs) *load {
	return &load{w: w, in: in, acked: make([]atomic.Uint64, numKeys), issued: make([]uint64, numKeys)}
}

func (l *load) fail(err error) {
	l.failed.Add(1)
	l.errMu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.errMu.Unlock()
}

// caller is one load generator working through its own op sequence.
type caller struct {
	id  int
	api kvAPI
	l   *load
	pos int    // next index into the op sequence
	n   uint64 // puts issued, the source of put versions
	val []byte // scratch value
	// lat[kind][window] holds the timed phase's latencies in ns.
	lat [2][][]uint32
}

func newCaller(id int, api kvAPI, l *load, windows int) *caller {
	c := &caller{id: id, api: api, l: l, val: make([]byte, valueSize)}
	for k := range c.lat {
		c.lat[k] = make([][]uint32, windows)
		for w := range c.lat[k] {
			c.lat[k][w] = make([]uint32, 0, 1<<18)
		}
	}
	return c
}

// do runs the caller's next op, checking a read against the ledger. It
// reports the op's kind and whether it was acknowledged; a failure is
// recorded in the load.
func (c *caller) do() (kind int, ok bool) {
	l := c.l
	seq := l.in.ops[c.id]
	o := seq[c.pos]
	if c.pos++; c.pos == len(seq) {
		c.pos = 0
	}
	k := int(o.key)
	l.attempted.Add(1)
	if o.put {
		c.n++
		ver := c.n*uint64(l.w.callers) + uint64(c.id)
		l.issued[k] = ver
		l.in.fillValue(c.val, k, ver)
		if err := c.api.Put(l.in.keys[k], c.val); err != nil {
			l.fail(fmt.Errorf("put key %d: %w", k, err))
			return kindPut, false
		}
		l.acked[k].Store(ver)
		return kindPut, true
	}
	floor := l.acked[k].Load()
	v, err := c.api.Get(l.in.keys[k])
	if err != nil {
		l.fail(fmt.Errorf("get key %d: %w", k, err))
		return kindGet, false
	}
	got, err := l.in.checkValue(k, v)
	if err == nil && got < floor {
		err = fmt.Errorf("key %d: read version %d below acknowledged %d", k, got, floor)
	}
	if err != nil {
		l.fail(err)
		return kindGet, false
	}
	return kindGet, true
}

// warmup runs n ops on every caller, unmeasured.
func warmup(callers []*caller, n int) {
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				c.do()
			}
		}()
	}
	wg.Wait()
}

// phase is one timed measurement.
type phase struct {
	t0, t1  time.Time
	winDur  time.Duration
	windows int
	done    atomic.Int64 // ops completed since t0
	// The sim clock when the phase completed its simOps-th op.
	simOnce    sync.Once
	simElapsed time.Duration
}

// opDone counts a completed op, reading the sim clock at the simOps-th.
func (p *phase) opDone(e *env) {
	if p.done.Add(1) == int64(e.w.simOps) {
		p.simOnce.Do(func() { p.simElapsed = e.cluster.Elapsed() })
	}
}

// windowDur is the length of one measurement window.
const windowDur = time.Second

// numWindows is the number of windows a phase of length d is split into.
func numWindows(d time.Duration) int { return max(1, int(d/windowDur)) }

// closedLoop runs every caller back to back for d. On the failover
// workload the monitor crashes the primary meanwhile.
func closedLoop(e *env, callers []*caller, d time.Duration, mon *monitor) *phase {
	n := numWindows(d)
	p := &phase{windows: n, winDur: d / time.Duration(n)}
	e.cluster.ResetMeasurement()
	if e.tr != nil {
		e.tr.reset()
	}
	p.t0 = time.Now()
	var wg sync.WaitGroup
	if e.w.failover {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mon.run(e, p)
		}()
	}
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := time.Now()
				kind, ok := c.do()
				end := time.Now()
				win := int(end.Sub(p.t0) / p.winDur)
				if win >= p.windows {
					return
				}
				if ok && e.w.failover {
					mon.acked(st, end)
				}
				c.lat[kind][win] = append(c.lat[kind][win], clampNs(end.Sub(st)))
				p.opDone(e)
			}
		}()
	}
	wg.Wait()
	p.t1 = time.Now()
	return p
}

func clampNs(d time.Duration) uint32 {
	if d >= 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// maxCrashes bounds the crashes of one run, and is the autopilot's
// spare budget: every crash enrolls one spare.
const maxCrashes = 64

// monitor crashes the primary and times, per crash, the layers that
// recover from it: the client's outage, the takeover, the server's reopen
// of the store and the autopilot's repair back to full redundancy.
type monitor struct {
	mu      sync.Mutex
	crashAt time.Time // the latest crash
	open    bool      // no op sent after it has been acknowledged yet
	unavail []time.Duration
	heals   []heal
	err     error
}

// heal is one crash's timeline on the wall clock: the crash, a backup's
// takeover, the server's reopen of the store (zero when it needed none)
// and full redundancy restored (zero when the phase ended first).
type heal struct {
	crash, takenOver, reopened, restored time.Time
}

// acked notes an op sent at st and acknowledged at end: the first one
// sent after a crash ends that crash's outage.
func (m *monitor) acked(st, end time.Time) {
	m.mu.Lock()
	if m.open && !st.Before(m.crashAt) {
		m.unavail = append(m.unavail, end.Sub(m.crashAt))
		m.open = false
	}
	m.mu.Unlock()
}

// run crashes the primary in the middle of each window of the phase,
// or up to a quarter window later while the previous crash is still being
// repaired to full redundancy (a crash before that would leave the group
// below quorum); a window whose repair ends later gets no crash. Each
// outage thus falls inside the phase, while the callers still drive the
// server to notice and heal it.
func (m *monitor) run(e *env, p *phase) {
	stop := p.t0.Add(time.Duration(p.windows) * p.winDur)
	repaired := func() bool { return e.cluster.Backups() >= 3 && !e.cluster.RepairProgress().Active }
	for k := range min(p.windows, maxCrashes) {
		due := p.t0.Add(time.Duration(k)*p.winDur + p.winDur/2)
		late := due.Add(p.winDur / 4)
		time.Sleep(time.Until(due))
		for !repaired() && time.Now().Before(late) {
			time.Sleep(time.Millisecond)
		}
		if !repaired() {
			continue
		}
		gen, reopens := e.cluster.Generation(), e.srv.Stats().Reopens
		if err := e.cluster.CrashPrimary(); err != nil {
			m.setErr(fmt.Errorf("crash primary: %w", err))
			return
		}
		h := heal{crash: time.Now()}
		m.mu.Lock()
		m.crashAt, m.open = h.crash, true
		m.mu.Unlock()
		// A takeover at admission can spare the server its reopen, so
		// the crash counts as handled once a backup has taken over.
		sawReopen := func() {
			if h.reopened.IsZero() && e.srv.Stats().Reopens != reopens {
				h.reopened = time.Now()
			}
		}
		for e.cluster.Generation() == gen {
			if time.Now().After(stop) {
				m.setErr(fmt.Errorf("no backup took over in the %v from a crash to the end of the run", stop.Sub(h.crash)))
				return
			}
			sawReopen()
			time.Sleep(100 * time.Microsecond)
		}
		h.takenOver = time.Now()
		for !repaired() && time.Now().Before(stop) {
			sawReopen()
			time.Sleep(time.Millisecond)
		}
		sawReopen()
		if repaired() {
			h.restored = time.Now()
		}
		m.mu.Lock()
		m.heals = append(m.heals, h)
		m.mu.Unlock()
	}
}

func (m *monitor) setErr(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}
