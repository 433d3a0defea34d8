package replication

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vista"
)

// Active-backup region names (appended after the vista layout).
const (
	regionRedoRing = "redoring"
	regionRingCtl  = "ringctl"
)

// wrapMarker in a record's nWrites field means "skip to the start of the
// ring": the producer leaves it when a record would straddle the wrap.
const wrapMarker = 0xFFFFFFFF

// redoChannel is the active group's shipping lane (paper Section 6.1): a
// circular buffer in Memory Channel space written by the primary and
// consumed by each backup CPU, with a producer pointer flowing forward and
// (modelled by one sim.Ring per backup) consumer pointers flowing back.
// The primary transmits each record once; the SAN's broadcast mappings
// deliver it to every backup's ring copy.
//
// Record layout (the record as a whole is 8-byte aligned; entries are
// packed tight so typical records fill whole 32-byte blocks — redo-log
// compactness is what lets the active scheme ride the SAN's full-packet
// bandwidth in the paper's Section 8 experiment):
//
//	[+0] nWrites (u32)   wrapMarker = skip-to-ring-start marker
//	[+4] size    (u32)   total record bytes including header and pad
//	then per write: off (u32), len (u16), data (unpadded)
type redoChannel struct {
	g *Group

	ringIO *mem.Region // primary-side I/O-space window
	ctlIO  *mem.Region // primary-side pointer window

	ringSize  int
	prodTotal uint64 // bytes produced (monotonic, includes pads)
	// pubTotal is the producer-pointer value the backups have been told:
	// with group commit enabled it trails prodTotal by the open batch and
	// catches up at each flush.
	pubTotal uint64

	// free is the recycled transaction handle (one transaction is open at
	// a time). Recycled only after a clean Commit/Abort — a handle
	// orphaned by a crash keeps its value, so it can never alias a newer
	// transaction.
	free *activeTx

	// Reusable scratch for the zero-alloc commit/apply path. Stack arrays
	// would escape through the Backing/IOSink interfaces and charge the
	// allocator per record; the channel is single-stream under the group
	// mutex, so shared buffers are safe.
	hdrBuf   [8]byte
	ptrBuf   [8]byte
	applyBuf []byte
}

func (g *Group) buildActive(specs []vista.RegionSpec) error {
	g.link = g.cfg.Link
	if g.link == nil {
		g.link = sim.NewLink(g.params)
	}
	g.primary = NewNode("primary", g.params, g.link)

	next, err := vista.PlaceRegions(g.primary.Space, specs, regionBase)
	if err != nil {
		return err
	}
	// The active scheme replicates nothing but the redo log: the engine's
	// own structures stay local.
	for _, r := range g.primary.Space.Regions() {
		r.WriteThrough = false
	}
	if err := g.newBackupNodes(specs); err != nil {
		return err
	}

	ringSize := g.params.RingBytes
	ch := &redoChannel{g: g, ringSize: ringSize}

	ringBase := next
	ctlBase := ringBase + uint64(ringSize) + regionBase
	ch.ringIO = mem.NewRegion(regionRedoRing, ringBase, mem.NewDense(ringSize))
	ch.ringIO.IOOnly = true
	ch.ctlIO = mem.NewRegion(regionRingCtl, ctlBase, mem.NewDense(64))
	ch.ctlIO.IOOnly = true
	for _, r := range []*mem.Region{ch.ringIO, ch.ctlIO} {
		if err := g.primary.Space.Add(r); err != nil {
			return err
		}
	}
	for _, b := range g.backups {
		b.ring = sim.NewRing(g.params, ringSize)
		b.bRing = mem.NewRegion(regionRedoRing, ringBase, mem.NewDense(ringSize))
		b.bCtl = mem.NewRegion(regionRingCtl, ctlBase, mem.NewDense(64))
		for _, r := range []*mem.Region{b.bRing, b.bCtl} {
			if err := b.node.Space.Add(r); err != nil {
				return err
			}
		}
	}
	if err := g.mapFanout(); err != nil {
		return err
	}
	g.redo = ch
	return nil
}

// activeTx wraps a vista transaction with redo capture. One transaction is
// open at a time, so the channel reuses a single value and its buffers.
// Commit/Abort release the group mutex taken at Begin.
type activeTx struct {
	ch   *redoChannel
	tx   *vista.Tx
	offs []int
	lens []int
	data []byte // concatenated payloads, entries indexed via offs/lens
	done bool
}

var _ TxHandle = (*activeTx)(nil)

func (c *redoChannel) wrap(tx *vista.Tx) *activeTx {
	t := c.free
	if t == nil {
		t = &activeTx{}
	}
	c.free = nil
	t.ch, t.tx, t.done = c, tx, false
	t.offs, t.lens, t.data = t.offs[:0], t.lens[:0], t.data[:0]
	return t
}

// SetRange delegates to the local engine (undo capture).
func (t *activeTx) SetRange(off, n int) error {
	t.ch.g.mu.Lock()
	defer t.ch.g.mu.Unlock()
	return t.tx.SetRange(off, n)
}

// Read delegates to the local engine.
func (t *activeTx) Read(off int, dst []byte) error {
	t.ch.g.mu.Lock()
	defer t.ch.g.mu.Unlock()
	return t.tx.Read(off, dst)
}

// maxEntryLen is the largest single redo entry (16-bit length field);
// larger application writes are staged as several entries.
const maxEntryLen = 1<<16 - 1

// Write performs the local in-place write and stages the bytes for the
// commit-time redo record.
func (t *activeTx) Write(off int, src []byte) error {
	t.ch.g.mu.Lock()
	defer t.ch.g.mu.Unlock()
	if err := t.tx.Write(off, src); err != nil {
		return err
	}
	for len(src) > 0 {
		n := len(src)
		if n > maxEntryLen {
			n = maxEntryLen
		}
		t.offs = append(t.offs, off)
		t.lens = append(t.lens, n)
		t.data = append(t.data, src[:n]...)
		off += n
		src = src[n:]
	}
	return nil
}

// Abort rolls back locally; nothing was shipped yet.
func (t *activeTx) Abort() error {
	g := t.ch.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) {
		t.done = true
		return ErrCrashed
	}
	t.offs, t.lens, t.data = t.offs[:0], t.lens[:0], t.data[:0]
	err := t.tx.Abort()
	t.done = true
	g.finishTxLocked(t)
	t.ch.free = t
	return err
}

// Commit writes the redo record through the SAN and commits locally (the
// 1-safe commit point). The producer-pointer publish — which is what lets
// the backups consume the record — and the TwoSafe/QuorumSafe
// acknowledgement wait happen in the batch flush: immediately when group
// commit is off, once per CommitBatch/CommitWindow batch when it is on.
func (t *activeTx) Commit() error {
	c := t.ch
	g := c.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return vista.ErrTxDone
	}
	if g.orphanedLocked(t) || g.crashed {
		// The node died mid-transaction: nothing to ship, and the handle
		// must not touch ring or clock state that may already belong to
		// a successor era.
		t.done = true
		g.finishTxLocked(t)
		return ErrCrashed
	}
	size := 8
	for _, n := range t.lens {
		size += 6 + n
	}
	size = pad8(size)

	// Reserved-but-unpublished bytes are not reclaimable: the consumer
	// only advances past published records, so an open batch that grew to
	// the ring's capacity would deadlock the reservation below. Seal the
	// batch early when this record would push the unpublished span past
	// half the ring (half, so the consumer retains room to drain while
	// the next batch fills). Large records or small rings therefore cap
	// the effective batch size instead of panicking.
	var preErr error
	if c.prodTotal != c.pubTotal &&
		int(c.prodTotal-c.pubTotal)+size+c.ringSize/8 > c.ringSize/2 {
		preErr = g.flushLocked()
	}

	// Reserve ring space, accounting for a wrap pad. Every reachable
	// backup's ring must have room: the slowest consumer back-pressures
	// the producer, exactly as its write-back pointer would.
	off := int(c.prodTotal % uint64(c.ringSize))
	pad := 0
	if off+size > c.ringSize {
		pad = c.ringSize - off
	}
	first := true
	for _, b := range g.backups {
		if !b.acking() {
			continue
		}
		if first {
			g.primary.MC.RingReserve(b.ring, size+pad)
			first = false
		} else {
			g.primary.Clock.AdvanceTo(b.ring.Reserve(g.primary.Clock.Now(), size+pad))
		}
	}

	acc := g.primary.Acc
	if pad > 0 {
		c.writeU32(acc, off, wrapMarker)
		c.writeU32(acc, off+4, uint32(pad))
		c.prodTotal += uint64(pad)
		off = 0
	}

	// The record: header, then tightly packed per-write entries. All
	// stores are sequential and gapless, so the stream coalesces into
	// full 32-byte packets (a Debit-Credit record is exactly two).
	c.writeU32(acc, off, uint32(len(t.lens)))
	c.writeU32(acc, off+4, uint32(size))
	pos := off + 8
	cursor := 0
	for i, n := range t.lens {
		binary.LittleEndian.PutUint32(c.hdrBuf[0:4], uint32(t.offs[i]))
		binary.LittleEndian.PutUint16(c.hdrBuf[4:6], uint16(n))
		acc.Write(c.ringIO.Base+uint64(pos), c.hdrBuf[:6], mem.CatMeta)
		acc.Write(c.ringIO.Base+uint64(pos+6), t.data[cursor:cursor+n], mem.CatModified)
		pos += 6 + n
		cursor += n
	}
	if tail := off + size - pos; tail > 0 {
		// Zero the alignment pad so the stream stays gapless.
		c.hdrBuf = [8]byte{}
		acc.Write(c.ringIO.Base+uint64(pos), c.hdrBuf[:tail], mem.CatMeta)
	}
	c.prodTotal += uint64(size)

	// Entries must be on the backups before the pointer names them
	// (paper Section 6.1: "only after all of the entries are written,
	// does it advance the end of buffer pointer").
	acc.Fence()

	// Local commit: the 1-safe commit point. A crash between here and
	// the pointer's delivery loses this transaction on the backups.
	if err := t.tx.Commit(); err != nil {
		t.done = true
		g.finishTxLocked(t)
		t.ch.free = t
		return err
	}

	// Join the group-commit batch; the flush (inside joinBatchLocked when
	// the batch seals) publishes the pointer and pays the ack wait.
	ackErr := g.joinBatchLocked()
	if ackErr == nil {
		// Surface an ack failure from the early capacity flush above:
		// those batch members' degradation would otherwise be silent.
		ackErr = preErr
	}
	t.offs, t.lens, t.data = t.offs[:0], t.lens[:0], t.data[:0]
	t.done = true
	g.finishTxLocked(t)
	t.ch.free = t
	return ackErr
}

// flush publishes the producer pointer covering every record written since
// the last flush, waits for the batch's acknowledgements under
// TwoSafe/QuorumSafe, and lets the backups apply the delivered stream. One
// pointer packet and one ack round trip amortize over the whole batch —
// the group-commit lever.
func (c *redoChannel) flush() error {
	g := c.g
	if c.prodTotal == c.pubTotal {
		return nil
	}
	bytes := int(c.prodTotal - c.pubTotal)
	acc := g.primary.Acc

	// The pointer store needs no fence of its own: its buffer was
	// (re)allocated after the last record's fence, and both natural fills
	// and evictions leave the node in allocation order, so by the time
	// any pointer value reaches a backup, every record it names has been
	// drained by an earlier commit's fence. Letting it linger coalesces
	// consecutive flushes' pointer updates into one packet.
	acc.WriteU64(c.ctlIO.Base, c.prodTotal, mem.CatMeta)
	first := true
	for _, b := range g.backups {
		if !b.acking() {
			continue
		}
		if first {
			g.primary.MC.RingPublish(b.ring, bytes)
			first = false
		} else {
			b.ring.Publish(g.primary.MC.LastDelivered()+sim.Time(b.ackLag), bytes)
		}
	}
	c.pubTotal = c.prodTotal

	var ackErr error
	if g.cfg.Safety != OneSafe {
		// Hold the commit until enough backups have applied the batch
		// and their acknowledgements have crossed back — the pointer
		// must actually leave the write buffers first.
		acc.Fence()
		acks := g.ackBuf[:0]
		for _, b := range g.backups {
			if g.ackEligibleLocked(b) {
				acks = append(acks, b.ring.ConsumerDone()+sim.Time(g.params.LinkLatency)+sim.Time(b.ackLag))
			}
		}
		g.ackBuf = acks[:0]
		at, err := ackDeadline(acks, g.cfg.Safety, g.cfg.Backups)
		if err != nil {
			// Backups failed mid-batch (Begin gates on availability):
			// the transactions are committed locally but the
			// acknowledgement discipline cannot be honored.
			ackErr = err
		} else {
			g.primary.Clock.AdvanceTo(at)
		}
	}

	// Apply everything whose pointer actually reached the backups (under
	// injected mid-stream crashes this may lag prodTotal).
	for _, b := range g.backups {
		c.applyDelivered(b)
	}
	return ackErr
}

func (c *redoChannel) writeU32(acc *mem.Accessor, off int, v uint32) {
	acc.WriteU32(c.ringIO.Base+uint64(off), v, mem.CatMeta)
}

// deliveredPtr reads the producer pointer as backup b sees it.
func (c *redoChannel) deliveredPtr(b *backup) uint64 {
	b.bCtl.ReadRaw(0, c.ptrBuf[:])
	return binary.LittleEndian.Uint64(c.ptrBuf[:])
}

// applyDelivered advances backup b's database copy through every complete
// record the SAN has delivered to it. State-only: the backup CPU's timing
// is modelled by its sim.Ring. A paused or gated backup has a gap in its
// ring copy and stays frozen at its pre-pause prefix; a joiner applies
// from its copy-start sequence (redo records are absolute physical writes,
// so replay over the fuzzy transfer is idempotent-forward).
func (c *redoChannel) applyDelivered(b *backup) {
	if !b.receiving() {
		return
	}
	target := c.deliveredPtr(b)
	for b.appliedTotal < target {
		off := int(b.appliedTotal % uint64(c.ringSize))
		b.bRing.ReadRaw(off, c.ptrBuf[:])
		nWrites := binary.LittleEndian.Uint32(c.ptrBuf[0:4])
		size := binary.LittleEndian.Uint32(c.ptrBuf[4:8])
		if nWrites == wrapMarker {
			b.appliedTotal += uint64(size)
			continue
		}
		c.applyRecord(b, off, int(nWrites), int(size))
		b.appliedTotal += uint64(size)
		b.appliedTxns++
	}
}

// applyRecord replays one record's writes into backup b's database. The
// record is copied out of the ring in one read and its entries parsed in
// place; every entry is checked against the record's size before any of
// its bytes are written, so a malformed record panics without spilling
// past its end into the database.
func (c *redoChannel) applyRecord(b *backup, off, nWrites, size int) {
	if size < 8 || off+size > c.ringSize {
		overrun(off, size)
	}
	if b.db == nil {
		b.db = b.node.Space.ByName(vista.RegionDB)
	}
	if cap(c.applyBuf) < size {
		c.applyBuf = make([]byte, size)
	}
	rec := c.applyBuf[:size]
	b.bRing.ReadRaw(off, rec)
	pos := 8
	for w := 0; w < nWrites; w++ {
		if pos+6 > size {
			overrun(off, size)
		}
		dbOff := int(binary.LittleEndian.Uint32(rec[pos:]))
		n := int(binary.LittleEndian.Uint16(rec[pos+4:]))
		pos += 6
		if pos+n > size {
			overrun(off, size)
		}
		b.db.WriteRaw(dbOff, rec[pos:pos+n])
		pos += n
	}
}

// overrun reports a corrupt redo record: the modelled backup CPU would
// run off the end of the record, so this is a broken invariant, not an
// error to recover from.
func overrun(off, size int) {
	panic(fmt.Sprintf("replication: redo record at %d overruns its size %d", off, size))
}

// takeover finishes consumption on the promoted backup and opens a fresh
// store over its database (paper: the active backup's copy is
// transaction-consistent, so recovery is trivial — apply complete records,
// discard the partial tail).
func (c *redoChannel) takeover(g *Group, b *backup) (*vista.Store, error) {
	c.applyDelivered(b)

	// Seed the committed-transaction counter before the engine opens.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], b.appliedTxns)
	ctl := b.node.Space.ByName(vista.RegionControl)
	ctl.WriteRaw(0, buf[:])

	return vista.Open(g.cfg.Store, b.node.Acc, b.node.Rio)
}

func pad8(n int) int { return (n + 7) &^ 7 }
