package repro

// This file is the placement-routed data plane: every read, load and
// transactional operation resolves its span through the live placement
// table and calls the owning replica group directly. The one-group
// deployment takes the same path — its table is the single range
// [0, DBSize) — so there is one routing rule, not a fast path and a slow
// one.

import (
	"errors"
	"fmt"

	"repro/internal/replication"
)

// checkRange validates [off, off+n) against the configured database size.
// The returned error wraps ErrBounds.
func (c *Cluster) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > c.dbSize {
		return fmt.Errorf("repro: range [%d,+%d) outside the database of %d bytes: %w", off, n, c.dbSize, ErrBounds)
	}
	return nil
}

// Load installs initial content without charging simulated time, keeping
// every replica's copy in sync (the initial transfer that precedes
// failure-free operation). Loads landing on a range mid-migration are
// marked dirty for the delta resync; a load that raced a cut-over redoes
// itself against the new table (raw installs are idempotent), so the
// flipped-to group never misses the bytes.
func (c *Cluster) Load(off int, data []byte) error {
	if err := c.checkRange(off, len(data)); err != nil {
		return err
	}
	for {
		v := c.view.Load()
		for pos := 0; pos < len(data); {
			i, so, run := v.table.Locate(off + pos)
			n := min(run, len(data)-pos)
			if err := v.groups[i].Load(so, data[pos:pos+n]); err != nil {
				return err
			}
			pos += n
		}
		c.markDirty(off, len(data))
		if c.view.Load().table == v.table {
			return nil
		}
	}
}

// Read performs a charged, non-transactional read on the serving nodes of
// the owning groups, serialized with each group's transactions. A read
// that raced a cut-over retries whole against the new table, so one call
// never mixes two placement epochs.
func (c *Cluster) Read(off int, dst []byte) error {
	if err := c.checkRange(off, len(dst)); err != nil {
		return err
	}
	for {
		v := c.view.Load()
		for pos := 0; pos < len(dst); {
			i, so, run := v.table.Locate(off + pos)
			n := min(run, len(dst)-pos)
			if err := v.groups[i].Read(so, dst[pos:pos+n]); err != nil {
				return err
			}
			pos += n
		}
		if c.view.Load().table == v.table {
			return nil
		}
	}
}

// ReadAt performs a charged read under opts' consistency discipline,
// letting backups serve when the mode permits; the zero ReadOpts is
// exactly Read. Each sub-span is routed on its own group with that shard's
// token element as the floor (a token shorter than the shard count leaves
// the missing shards unconstrained, so any token — including one minted
// before a rebalance grew the deployment — is valid on any shard). The
// result reports the last sub-span's server; when ReadOpts.Replica pins a
// backup index, the pin applies on every group.
func (c *Cluster) ReadAt(off int, dst []byte, opts ReadOpts) (ReadResult, error) {
	if err := c.checkRange(off, len(dst)); err != nil {
		return ReadResult{}, err
	}
	for {
		var res ReadResult
		v := c.view.Load()
		for pos := 0; pos < len(dst); {
			i, so, run := v.table.Locate(off + pos)
			n := min(run, len(dst)-pos)
			var minSeq uint64
			if i < len(opts.Token) {
				minSeq = opts.Token[i]
			}
			r, err := readAt(v.groups[i].Pair, so, dst[pos:pos+n], opts, minSeq)
			if err != nil {
				return ReadResult{}, err
			}
			res = r
			pos += n
		}
		if c.view.Load().table == v.table {
			return res, nil
		}
	}
}

// readAt serves one group-local span of a ReadAt.
func readAt(g *replication.Pair, off int, dst []byte, opts ReadOpts, minSeq uint64) (ReadResult, error) {
	if opts.Mode == ReadPrimary && opts.Replica == 0 {
		// The zero-cost default: identical to Read.
		if err := g.Read(off, dst); err != nil {
			return ReadResult{}, err
		}
		seq := g.Committed()
		return ReadResult{Seq: seq, Primary: seq}, nil
	}
	res, err := g.RouteRead(off, dst, replication.ReadSpec{
		Mode:    replication.ReadMode(opts.Mode),
		MinSeq:  minSeq,
		Bound:   opts.Bound,
		Replica: opts.Replica,
	})
	if err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Replica: res.Replica, Seq: res.Seq, Primary: res.Primary, Repaired: res.Repaired}, nil
}

// Token fills dst (growing it as needed) with the per-shard commit-
// sequence vector: element i is shard i's committed counter, the floor a
// ReadYourWrites read after this instant must observe. Capture it after a
// Commit returns to make that commit visible to the session's replica
// reads. Lock-free. After AddShards the vector grows; earlier (shorter)
// tokens stay valid — the missing shards are simply unconstrained.
func (c *Cluster) Token(dst Token) Token {
	gs := c.view.Load().groups
	if cap(dst) < len(gs) {
		dst = make(Token, len(gs))
	}
	dst = dst[:len(gs)]
	for i, g := range gs {
		dst[i] = g.Committed()
	}
	return dst
}

// ReadRaw copies database bytes without charging simulated time,
// serialized with each group's transactions. It panics if the span falls
// outside the database — the DB contract.
func (c *Cluster) ReadRaw(off int, dst []byte) {
	if off < 0 || off+len(dst) > c.dbSize {
		panic(fmt.Sprintf("repro: ReadRaw [%d,+%d) outside the database of %d bytes", off, len(dst), c.dbSize))
	}
	for {
		v := c.view.Load()
		for pos := 0; pos < len(dst); {
			i, so, run := v.table.Locate(off + pos)
			n := min(run, len(dst)-pos)
			v.groups[i].ReadRaw(so, dst[pos:pos+n])
			pos += n
		}
		if c.view.Load().table == v.table {
			return
		}
	}
}

// Begin opens a transaction. Each group is admitted lazily, on the
// transaction's first touch of it — that is when the group's lock is taken
// (held until Commit/Abort) and when a refusal (ErrCrashed,
// ErrSafetyUnavailable, ErrLeaseExpired) surfaces. All touched groups
// commit (or abort) together, though not atomically across groups. The
// returned handle is recycled after Commit/Abort and must not be used past
// that point.
func (c *Cluster) Begin() (Tx, error) {
	t := c.txPool.Get().(*tx)
	t.done = false
	return t, nil
}

// BeginShard opens a transaction directly on replica group shard, in that
// group's own offsets [0, ShardSize()) — the per-group stream of a
// partitioned driver (tpc.RunSharded). It bypasses placement and the range
// mover's dirty tracking, so it refuses with ErrRebalanceActive while a
// rebalance is moving ranges.
func (c *Cluster) BeginShard(shard int) (Tx, error) {
	if c.migActive() {
		return nil, ErrRebalanceActive
	}
	g, err := c.shard([]int{shard})
	if err != nil {
		return nil, err
	}
	h, err := g.Begin()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// LoadShard installs initial content on replica group shard at
// group-local offsets, like Load but bypassing placement (see BeginShard,
// whose ErrRebalanceActive refusal it shares).
func (c *Cluster) LoadShard(shard, off int, data []byte) error {
	if c.migActive() {
		return ErrRebalanceActive
	}
	return c.onShard([]int{shard}, func(g *replication.Pair) error { return g.Load(off, data) })
}

// dirtySpan records one global range a transaction mutated while a
// rebalance was active; finish() republishes them as dirty marks after
// the commits make the bytes visible.
type dirtySpan struct{ off, n int }

// tx routes transactional operations by offset onto per-group transaction
// handles. The hot-path methods walk the placement split inline
// (closure-free) so a warmed transaction performs no allocation; marks is
// only appended while a rebalance is active.
type tx struct {
	c     *Cluster
	open  []replication.TxHandle
	marks []dirtySpan
	done  bool
}

var _ Tx = (*tx)(nil)

// route resolves the span at off under the current snapshot and admits
// the owning group, opening its transaction on first touch (the open
// table grows lazily when a rebalance added groups after this handle was
// pooled). Admission can block behind a cut-over barrier holding the
// group's transaction slot; if routing flipped meanwhile, ok is false and
// the caller re-routes the span on the new table (the speculatively
// admitted group simply stays open and idle until finish).
func (t *tx) route(off int) (h replication.TxHandle, so, run int, ok bool, err error) {
	v := t.c.view.Load()
	i, so, run := v.table.Locate(off)
	for len(t.open) < len(v.groups) {
		t.open = append(t.open, nil)
	}
	if t.open[i] == nil {
		h, err := v.groups[i].Begin()
		if err != nil {
			return nil, 0, 0, false, fmt.Errorf("repro: shard %d: %w", i, err)
		}
		t.open[i] = h
	}
	if t.c.view.Load().table != v.table {
		return nil, 0, 0, false, nil
	}
	return t.open[i], so, run, true, nil
}

// SetRange declares that [off, off+n) may be modified, capturing undo
// information on each owning group.
func (t *tx) SetRange(off, n int) error {
	if err := t.c.checkRange(off, n); err != nil {
		return err
	}
	for n > 0 {
		h, so, run, ok, err := t.route(off)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cnt := min(run, n)
		if err := h.SetRange(so, cnt); err != nil {
			return err
		}
		off += cnt
		n -= cnt
	}
	return nil
}

// Write stores src at database offset off, in place. While a range move
// is in flight the span is recorded for the mover's delta resync.
func (t *tx) Write(off int, src []byte) error {
	if err := t.c.checkRange(off, len(src)); err != nil {
		return err
	}
	for pos := 0; pos < len(src); {
		h, so, run, ok, err := t.route(off)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cnt := min(run, len(src)-pos)
		if err := h.Write(so, src[pos:pos+cnt]); err != nil {
			return err
		}
		if t.c.migActive() {
			t.marks = append(t.marks, dirtySpan{off: off, n: cnt})
		}
		off += cnt
		pos += cnt
	}
	return nil
}

// Read loads database bytes through the transaction.
func (t *tx) Read(off int, dst []byte) error {
	if err := t.c.checkRange(off, len(dst)); err != nil {
		return err
	}
	for pos := 0; pos < len(dst); {
		h, so, run, ok, err := t.route(off)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		cnt := min(run, len(dst)-pos)
		if err := h.Read(so, dst[pos:pos+cnt]); err != nil {
			return err
		}
		off += cnt
		pos += cnt
	}
	return nil
}

// Commit commits every touched group in shard order. A mid-list failure
// leaves earlier groups committed and later ones aborted — cross-group
// atomicity is out of scope (see Cluster) — and is reported as a
// *PartialCommitError naming both sets.
func (t *tx) Commit() error { return t.finish(true) }

// Abort rolls every touched group back.
func (t *tx) Abort() error { return t.finish(false) }

func (t *tx) finish(commit bool) error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	c := t.c
	// Enter the finishing window before any per-group release: the
	// cut-over barrier holds the source's transaction slot and then waits
	// for this counter, so every span below is marked dirty before the
	// mover trusts its dirty set. Aborted spans re-mark too — harmless
	// over-copy, never a miss.
	fin := len(t.marks) > 0
	if fin {
		c.finishing.Add(1)
	}
	var firstErr, ackErr error
	var pce *PartialCommitError
	for i, h := range t.open {
		if h == nil {
			continue
		}
		switch {
		case commit && firstErr == nil:
			err := h.Commit()
			switch {
			case err == nil:
			case errors.Is(err, ErrSafetyUnavailable):
				// The group committed locally but could not collect the
				// configured acknowledgements (backups failed
				// mid-transaction): its data is durable and visible, so
				// it belongs to the committed set. Keep committing the
				// remaining groups and surface the degradation.
				if ackErr == nil {
					ackErr = fmt.Errorf("repro: shard %d: %w", i, err)
				}
			default:
				// Build the partial-commit report only on the failure
				// path: the clean path stays allocation-free.
				pce = &PartialCommitError{Failed: i, Err: err}
				for j := 0; j < i; j++ {
					if t.open[j] != nil {
						pce.Committed = append(pce.Committed, j)
					}
				}
				firstErr = pce
			}
		default:
			err := h.Abort()
			if pce != nil {
				pce.Aborted = append(pce.Aborted, i)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("repro: shard %d: %w", i, err)
			}
		}
	}
	clear(t.open)
	if fin {
		for _, m := range t.marks {
			c.markDirty(m.off, m.n)
		}
		c.finishing.Add(-1)
	}
	t.marks = t.marks[:0]
	c.txPool.Put(t)
	if c.migActive() {
		// Ride the commit stream: every completed transaction buys the
		// range mover a pacing slice (non-blocking; skipped when another
		// goroutine is already pumping).
		c.pump(false, false)
	}
	if firstErr == nil {
		firstErr = ackErr
	}
	return firstErr
}
