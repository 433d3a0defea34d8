// Package kv is a replicated key-value store laid out inside the bytes of
// a repro.DB. The index — an open-addressed hash table with linear
// probing — and the record heap — a slab of fixed-size slots — both live
// in the replicated database itself and are mutated only through the
// DB's transactional SetRange/Write path, so the entire keyspace inherits
// the deployment's fault tolerance with zero new replication code: crash
// the primary at any instant, fail over, Open the survivor, and every
// acknowledged Put is readable (at quorum or 2-safe commit; 1-safe keeps
// the paper's lost-window semantics, now observable at the key level).
//
// # Layout
//
// The database bytes are carved into three areas at format time:
//
//	[0, 64)              header: magic, geometry
//	[64, slotsOff)       bucket array: one 8-byte word per bucket
//	[slotsOff, ...)      slot slab: fixed-size key+value records
//
// A bucket word is 0 (empty), 1 (tombstone) or slotIndex+2 (live). A slot
// holds an 8-byte record header (key length, value length) followed by
// the key and value bytes. Geometry is chosen so the table's load factor
// stays at or below one half.
//
// # Crash consistency
//
// Every mutation is a transaction (or two) on the underlying DB, and the
// replication layer guarantees a committed prefix — so consistency
// reduces to write ordering. A bucket word is 8-byte aligned and never
// spans a shard boundary, making the bucket flip the atomic commit point
// of every operation. New and updated records are written out of place
// into a free slot and committed *before* the bucket flip that makes them
// reachable; on a sharded deployment the two writes may land on different
// shards, so they are issued as two transactions in that order (a
// single-shard deployment merges them into one atomic transaction). A
// crash between the two leaks at most a slot, which Open reclaims; it
// never corrupts a reachable record. Open validates every reachable
// bucket (slot range, record-header sanity, duplicate references and
// duplicate keys from torn multi-shard flips) and tombstones the losers.
//
// # Errors
//
//	Call            Errors
//	----            ------
//	Open            ErrBadFormat, ErrTooSmall, plus repro errors
//	Get             ErrNotFound, ErrEmptyKey, ErrBroken, repro.ErrCrashed
//	Put             ErrTooLarge, ErrEmptyKey, ErrFull, ErrBroken,
//	                repro.ErrCrashed, repro.ErrSafetyUnavailable
//	Delete          ErrNotFound, ErrEmptyKey, ErrBroken, repro errors
//	Scan            ErrBroken, repro.ErrCrashed
//	Txn.Commit      ErrTxnDone plus everything Put and Delete return
//
// A repro.ErrSafetyUnavailable from Put, Delete or Txn.Commit means the
// mutation is durable on the serving node but its acknowledgement
// discipline was not met — the key-level analogue of the facade's
// degraded commit. After repro.ErrCrashed the Store is broken: fail the
// deployment over and Open it again, or call Reopen on the existing
// handle to re-run the same recovery in place (what a long-lived server
// does after the autopilot promotes a survivor).
package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro"
)

// Store errors.
var (
	// ErrBadFormat is returned by Open when the database bytes are
	// neither zeroed (formattable) nor a kv store.
	ErrBadFormat = errors.New("kv: database bytes are not a kv store")
	// ErrTooSmall is returned by Open when the database cannot hold the
	// header, a minimal bucket array and at least one slot.
	ErrTooSmall = errors.New("kv: database too small for a kv store")
	// ErrEmptyKey is returned for a zero-length key.
	ErrEmptyKey = errors.New("kv: empty key")
	// ErrTooLarge is returned by Put when key+value exceed the slot
	// payload (SlotPayload bytes).
	ErrTooLarge = errors.New("kv: key+value exceed the slot payload")
	// ErrFull is returned by Put when no free slot (or no reusable
	// bucket) remains. Updates are out of place, so even an overwrite
	// of an existing key transiently needs one free slot: a store
	// filled to exact slot capacity rejects every write until a
	// Delete makes room.
	ErrFull = errors.New("kv: store is full")
	// ErrNotFound is returned by Get and Delete for an absent key.
	ErrNotFound = errors.New("kv: key not found")
	// ErrBroken is returned once a commit failed mid-operation (the
	// primary crashed under the store): the in-memory index may be ahead
	// of the database. Fail over and Open the database again.
	ErrBroken = errors.New("kv: store invalidated by a failed commit; Open the database again")
	// ErrTxnDone is returned by operations on a committed or aborted
	// Txn.
	ErrTxnDone = errors.New("kv: transaction already completed")
)

// Layout constants. The header is one 64-byte line: an 8-byte magic
// followed by five 8-byte geometry words.
const (
	headerSize  = 64
	bucketWidth = 8
	slotHeader  = 8 // key length u32 + value length u32

	hMagic       = 0
	hBucketCount = 8
	hSlotSize    = 16
	hSlotCount   = 24
	hBucketsOff  = 32
	hSlotsOff    = 40
)

// magic identifies a formatted store; the trailing digit versions the
// layout.
var magic = []byte("REPROKV1")

// Bucket-word states; a live word is slotIndex+bucketBase.
const (
	bucketEmpty = 0
	bucketTomb  = 1
	bucketBase  = 2
)

// DefaultSlotSize is the record slot size Open formats with: an 8-byte
// record header plus up to 248 bytes of key+value.
const DefaultSlotSize = 256

// Options tunes Open's format-time geometry. Opening an already
// formatted store ignores it (geometry is read from the header).
type Options struct {
	// SlotSize is the fixed record slot size in bytes (default
	// DefaultSlotSize, minimum 64). Key length + value length is capped
	// at SlotSize-8.
	SlotSize int
}

// geometry is the persisted layout, cached from the header.
type geometry struct {
	bucketCount uint64 // power of two
	slotSize    uint64
	slotCount   uint64
	bucketsOff  uint64
	slotsOff    uint64
}

func (g geometry) bucketOff(b uint64) int { return int(g.bucketsOff + b*bucketWidth) }
func (g geometry) slotOff(i uint64) int   { return int(g.slotsOff + i*g.slotSize) }
func (g geometry) payload() int           { return int(g.slotSize) - slotHeader }
func (g geometry) mask() uint64           { return g.bucketCount - 1 }

// Store is a key-value view over a repro.DB. All state of record lives in
// the replicated database bytes; the Store itself holds only derived
// acceleration (the free-slot list and live counters), rebuilt by Open.
// A Store is safe for concurrent use; operations serialize on its mutex
// (the underlying deployment runs one transaction at a time per shard
// anyway). Once any operation observes the deployment crashed, the Store
// is broken — fail over and Open again. An unattended takeover
// (Config.Autopilot with AutoFailover) surfaces no error the Store can
// observe, so a caller running the autopilot at 1-safe must watch the
// deployment's AutopilotEvents (or Generation) and re-Open after a
// takeover before issuing more writes; at quorum or 2-safe the
// survivor's bytes match everything the Store acknowledged, and
// continuing is safe.
type Store struct {
	mu     sync.Mutex
	db     repro.DB
	geo    geometry
	free   []uint32 // free slot indices, LIFO
	live   int      // live keys
	tombs  int      // tombstoned buckets
	broken bool

	// scratch buffers recycled across operations. word also stages the
	// bucket word a commit flips: a stack array would escape through the
	// Tx interface and cost an allocation per flip.
	word [bucketWidth]byte
	hdr  [slotHeader]byte
	kbuf []byte
	vbuf []byte
	// one is the planned write of a single-key Put or Delete, and flips
	// a commit's recycled bucket order, so the single-key paths never
	// touch the allocator. Both are cleared when the call ends, so they
	// keep no caller buffers reachable between calls.
	one   write
	flips []*write

	// readPrimary is db.Read bound once, so the hot paths stay
	// allocation-free; vw/vwRead are the recycled replica read view for
	// GetAt/ScanAt (valid under mu, like the scratch buffers).
	readPrimary readFn
	vw          view
	vwRead      readFn
}

// Open opens (or, on an all-zero database, formats) a key-value store
// over db with default options. Recovery is Open: after a crash and
// failover, Open on the promoted survivor rebuilds the store from the
// replicated bytes, validating every reachable record and reclaiming
// slots leaked by interrupted operations.
func Open(db repro.DB) (*Store, error) { return OpenWith(db, Options{}) }

// OpenWith opens or formats a store with explicit options.
func OpenWith(db repro.DB, opt Options) (*Store, error) {
	if opt.SlotSize == 0 {
		opt.SlotSize = DefaultSlotSize
	}
	if opt.SlotSize < 64 {
		return nil, fmt.Errorf("kv: slot size %d below the 64-byte minimum", opt.SlotSize)
	}
	s := &Store{db: db}
	s.readPrimary = db.Read
	s.vwRead = s.vw.read
	s.vw.s = s
	var head [headerSize]byte
	if db.DBSize() < headerSize {
		return nil, ErrTooSmall
	}
	db.ReadRaw(0, head[:])
	switch {
	case bytes.Equal(head[hMagic:hMagic+8], magic):
		if err := s.adoptHeader(head[:]); err != nil {
			return nil, err
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	case bytes.Equal(head[:], make([]byte, headerSize)):
		if err := s.format(opt); err != nil {
			return nil, err
		}
	default:
		return nil, ErrBadFormat
	}
	return s, nil
}

// Reopen re-runs Open-time recovery in place: it probes the deployment
// for admission (which pumps the autopilot, so a dead primary with
// AutoFailover configured is promoted by the probe itself), re-adopts
// the persisted header, clears the broken flag and rebuilds the
// in-memory acceleration from the replicated bytes — exactly what a
// fresh Open would do, without invalidating the handle callers hold.
//
// It is the serving-path heal: a Store that observed ErrBroken after a
// primary crash (or a lease-fenced deposition) becomes usable again once
// the cluster has failed over, with every acknowledged mutation intact.
// If the deployment still is not servable — no failover yet, lease still
// expired, safety level unmet — Reopen returns that error and the Store
// stays broken; retry after the cluster heals.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, err := s.db.Begin()
	if err != nil {
		return err
	}
	if err := tx.Abort(); err != nil {
		return err
	}
	var head [headerSize]byte
	s.db.ReadRaw(0, head[:])
	if !bytes.Equal(head[hMagic:hMagic+8], magic) {
		return ErrBadFormat
	}
	if err := s.adoptHeader(head[:]); err != nil {
		return err
	}
	wasBroken := s.broken
	s.broken = false
	if err := s.recover(); err != nil {
		s.broken = s.broken || wasBroken
		return err
	}
	return nil
}

// format computes the geometry for the database size and persists the
// header in one transaction. The bucket array and slab are already zero
// (empty) on a fresh database.
func (s *Store) format(opt Options) error {
	geo, err := computeGeometry(s.db.DBSize(), opt.SlotSize)
	if err != nil {
		return err
	}
	s.geo = geo
	var head [headerSize]byte
	copy(head[hMagic:], magic)
	binary.LittleEndian.PutUint64(head[hBucketCount:], geo.bucketCount)
	binary.LittleEndian.PutUint64(head[hSlotSize:], geo.slotSize)
	binary.LittleEndian.PutUint64(head[hSlotCount:], geo.slotCount)
	binary.LittleEndian.PutUint64(head[hBucketsOff:], geo.bucketsOff)
	binary.LittleEndian.PutUint64(head[hSlotsOff:], geo.slotsOff)
	if err := s.runTx(func(tx repro.Tx) error {
		if err := tx.SetRange(0, headerSize); err != nil {
			return err
		}
		return tx.Write(0, head[:])
	}); err != nil {
		return err
	}
	s.resetFree(nil)
	return nil
}

// adoptHeader validates a persisted header and caches its geometry.
func (s *Store) adoptHeader(head []byte) error {
	g := geometry{
		bucketCount: binary.LittleEndian.Uint64(head[hBucketCount:]),
		slotSize:    binary.LittleEndian.Uint64(head[hSlotSize:]),
		slotCount:   binary.LittleEndian.Uint64(head[hSlotCount:]),
		bucketsOff:  binary.LittleEndian.Uint64(head[hBucketsOff:]),
		slotsOff:    binary.LittleEndian.Uint64(head[hSlotsOff:]),
	}
	size := uint64(s.db.DBSize())
	ok := g.bucketCount >= 8 && g.bucketCount&(g.bucketCount-1) == 0 &&
		g.slotSize >= 64 && g.slotCount >= 1 &&
		g.bucketsOff == headerSize &&
		g.slotsOff == g.bucketsOff+g.bucketCount*bucketWidth &&
		g.slotsOff+g.slotCount*g.slotSize <= size
	if !ok {
		return fmt.Errorf("kv: corrupt header geometry: %w", ErrBadFormat)
	}
	s.geo = g
	return nil
}

// computeGeometry carves size bytes into a header, a power-of-two bucket
// array and a slot slab, keeping bucketCount at least twice slotCount so
// the load factor never exceeds one half.
func computeGeometry(size, slotSize int) (geometry, error) {
	usable := size - headerSize
	slotCount := usable / slotSize
	var buckets int
	for i := 0; i < 64; i++ {
		buckets = nextPow2(2 * slotCount)
		if buckets < 8 {
			buckets = 8
		}
		fit := (usable - buckets*bucketWidth) / slotSize
		if fit >= slotCount {
			break
		}
		slotCount = fit
	}
	if slotCount < 1 {
		return geometry{}, ErrTooSmall
	}
	return geometry{
		bucketCount: uint64(buckets),
		slotSize:    uint64(slotSize),
		slotCount:   uint64(slotCount),
		bucketsOff:  headerSize,
		slotsOff:    uint64(headerSize + buckets*bucketWidth),
	}, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hash is FNV-1a 64.
func hash(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// resetFree rebuilds the free list from a used-slot set (nil = all free).
func (s *Store) resetFree(used []bool) {
	s.free = s.free[:0]
	// LIFO from the top so low slots are handed out first.
	for i := int(s.geo.slotCount) - 1; i >= 0; i-- {
		if used == nil || !used[i] {
			s.free = append(s.free, uint32(i))
		}
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Slots returns the record-slot capacity of the store.
func (s *Store) Slots() int { return int(s.geo.slotCount) }

// SlotPayload returns the maximum key length + value length one record
// can hold.
func (s *Store) SlotPayload() int { return s.geo.payload() }

// Buckets returns the index size (for observability and tests).
func (s *Store) Buckets() int { return int(s.geo.bucketCount) }

// DB returns the underlying deployment.
func (s *Store) DB() repro.DB { return s.db }

// fail records a broken commit path: the in-memory index can no longer be
// trusted against the database bytes.
func (s *Store) fail(err error) error {
	if errors.Is(err, repro.ErrSafetyUnavailable) {
		// The mutation is durable on the serving node; only the
		// acknowledgement discipline failed. The index is still correct.
		return err
	}
	s.broken = true
	return err
}

// observe inspects an error flowing out of any operation: once the
// deployment is seen crashed, the Store marks itself broken — after the
// failover the survivor's bytes may sit behind the in-memory free list
// (a 1-safe loss window), so continuing to allocate from it could
// overwrite reachable records. Re-Open rebuilds the index from the
// recovered bytes. (An unattended autopilot takeover that surfaces no
// error at all cannot be caught here; see the package comment.)
func (s *Store) observe(err error) error {
	if errors.Is(err, repro.ErrCrashed) || errors.Is(err, repro.ErrLeaseExpired) {
		// A lease expiry is a deposition: the surviving majority may
		// already serve behind a takeover this Store never saw.
		s.broken = true
	}
	return err
}

// runTx runs body inside one transaction on the underlying DB, aborting
// on body errors and marking the store broken on commit failures.
func (s *Store) runTx(body func(tx repro.Tx) error) error {
	tx, err := s.db.Begin()
	if err != nil {
		return s.observe(err)
	}
	return s.endTx(tx, body(tx))
}

// endTx finishes a transaction whose body returned bodyErr: it aborts on
// a body error and commits otherwise. Both errors of a failed abort stay
// visible to errors.Is, so a crash reported by either one breaks the
// store.
func (s *Store) endTx(tx repro.Tx, bodyErr error) error {
	if bodyErr != nil {
		if abortErr := tx.Abort(); abortErr != nil {
			return s.observe(fmt.Errorf("%w (abort also failed: %w)", bodyErr, abortErr))
		}
		return s.observe(bodyErr)
	}
	if err := tx.Commit(); err != nil {
		return s.fail(err)
	}
	return nil
}

// readFn is one operation's charged-read routing: the primary's
// serialized read (Store.readPrimary) or a replica read view (see
// readat.go). Injected so the probe and scan walks are identical — same
// offsets, same charges — wherever they are served.
type readFn func(off int, dst []byte) error

// readBucket reads bucket b's word with a charged read.
func (s *Store) readBucket(rd readFn, b uint64) (uint64, error) {
	if err := rd(s.geo.bucketOff(b), s.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s.word[:]), nil
}

// readSlotHeader reads slot i's record header with a charged read.
func (s *Store) readSlotHeader(rd readFn, i uint64) (keyLen, valLen int, err error) {
	if err := rd(s.geo.slotOff(i), s.hdr[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(s.hdr[:4])), int(binary.LittleEndian.Uint32(s.hdr[4:])), nil
}

// probeResult is where a key's probe ended.
type probeResult struct {
	found      bool
	bucket     uint64 // the key's bucket (found) — else the insert position
	slot       uint64 // the key's slot (found only)
	valLen     int    // the record's value length (found only)
	reusedTomb bool   // the insert position is a tombstone
	full       bool   // no insert position exists
}

// probe walks key's chain from its natural bucket: first matching live
// entry wins; the insert position is the first tombstone seen, else the
// terminating empty bucket. overlay, when non-nil, shadows bucket words
// with a transaction's planned flips — a planned live word never matches
// (a transaction probes each distinct key once), so it only occupies the
// bucket.
func (s *Store) probe(rd readFn, key []byte, overlay map[uint64]uint64) (probeResult, error) {
	h := hash(key)
	mask := s.geo.mask()
	firstFree := uint64(0)
	haveFree := false
	for i := uint64(0); i < s.geo.bucketCount; i++ {
		b := (h + i) & mask
		w, fromOverlay := overlay[b]
		if !fromOverlay {
			var err error
			if w, err = s.readBucket(rd, b); err != nil {
				return probeResult{}, err
			}
		}
		switch {
		case w == bucketEmpty:
			if haveFree {
				return probeResult{bucket: firstFree, reusedTomb: true}, nil
			}
			return probeResult{bucket: b}, nil
		case w == bucketTomb:
			if !haveFree {
				firstFree, haveFree = b, true
			}
		case fromOverlay:
			// Another key's planned record: occupied, cannot match.
		default:
			slot := w - bucketBase
			kl, vl, err := s.readSlotHeader(rd, slot)
			if err != nil {
				return probeResult{}, err
			}
			if kl == len(key) {
				s.kbuf = grow(s.kbuf, kl)
				if err := rd(s.geo.slotOff(slot)+slotHeader, s.kbuf); err != nil {
					return probeResult{}, err
				}
				if bytes.Equal(s.kbuf, key) {
					return probeResult{found: true, bucket: b, slot: slot, valLen: vl}, nil
				}
			}
		}
	}
	if haveFree {
		return probeResult{bucket: firstFree, reusedTomb: true}, nil
	}
	return probeResult{full: true}, nil
}

// grow returns buf resized to n, reallocating only when needed.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Get returns the value stored under key. The returned slice is freshly
// allocated.
func (s *Store) Get(key []byte) ([]byte, error) {
	val, err := s.GetAppend(key, nil)
	if err != nil {
		return nil, err
	}
	if val == nil {
		val = []byte{}
	}
	return val, nil
}

// GetAppend appends the value stored under key to dst and returns the
// extended slice — the allocation-free variant of Get for serving paths
// that copy the value straight into a pooled response buffer. On any
// error dst is returned unextended.
func (s *Store) GetAppend(key, dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(key); err != nil {
		return dst, err
	}
	return s.getAppend(s.readPrimary, key, dst)
}

// getAppend is the lookup body — probe, then the value read — with the
// charged reads routed through rd. Callers hold s.mu and have validated
// the key.
func (s *Store) getAppend(rd readFn, key, dst []byte) ([]byte, error) {
	p, err := s.probe(rd, key, nil)
	if err != nil {
		return dst, s.observe(err)
	}
	if !p.found {
		return dst, ErrNotFound
	}
	off := len(dst)
	out := slices.Grow(dst, p.valLen)[:off+p.valLen]
	if err := rd(s.geo.slotOff(p.slot)+slotHeader+len(key), out[off:]); err != nil {
		return dst, s.observe(err)
	}
	return out, nil
}

// Put stores value under key, overwriting any previous value. The record
// is written out of place and made reachable by an atomic bucket flip, so
// a crash mid-Put never damages the previous value.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(key); err != nil {
		return err
	}
	if len(key)+len(value) > s.geo.payload() {
		return ErrTooLarge
	}
	p, err := s.probe(s.readPrimary, key, nil)
	if err != nil {
		return s.observe(err)
	}
	if !p.found && p.full {
		return ErrFull
	}
	w := &s.one
	*w = write{key: key, val: value, bucket: p.bucket}
	defer s.dropOne()
	if err := s.alloc(w); err != nil {
		return err
	}
	if err := s.commitWrites(w); err != nil {
		if !errors.Is(err, repro.ErrSafetyUnavailable) {
			s.unalloc(w)
			return err
		}
		s.applyWrite(w, p)
		return err
	}
	s.applyWrite(w, p)
	return nil
}

// Delete removes key. The tombstoned bucket keeps later entries of the
// chain reachable; its slot returns to the free list.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(key); err != nil {
		return err
	}
	p, err := s.probe(s.readPrimary, key, nil)
	if err != nil {
		return s.observe(err)
	}
	if !p.found {
		return ErrNotFound
	}
	w := &s.one
	*w = write{key: key, del: true, bucket: p.bucket}
	defer s.dropOne()
	if err := s.commitWrites(w); err != nil {
		if !errors.Is(err, repro.ErrSafetyUnavailable) {
			return err
		}
		s.applyWrite(w, p)
		return err
	}
	s.applyWrite(w, p)
	return nil
}

// dropOne forgets the single-key scratch write once Put or Delete is
// done with it, releasing the caller's key and value.
func (s *Store) dropOne() { s.one = write{} }

// check validates the key and the store's health.
func (s *Store) check(key []byte) error {
	if s.broken {
		return ErrBroken
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	return nil
}

// write is one planned mutation: a record landing in slot (puts) and a
// flip of bucket.
type write struct {
	key, val []byte
	del      bool
	slot     uint32 // allocated slot (puts)
	bucket   uint64
}

// alloc reserves a free slot for a put.
func (s *Store) alloc(w *write) error {
	if len(s.free) == 0 {
		return ErrFull
	}
	w.slot = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return nil
}

// unalloc returns planned puts' slots to the pool after a failed commit.
func (s *Store) unalloc(writes ...*write) {
	for i := len(writes) - 1; i >= 0; i-- {
		if !writes[i].del {
			s.free = append(s.free, writes[i].slot)
		}
	}
}

// commitWrites persists a batch of planned writes: phase one writes every
// new record into its allocated slot, phase two flips every bucket word.
// On a single-shard deployment both phases share one atomic transaction;
// on a sharded deployment they are two transactions in record-then-flip
// order, so a crash between them leaks at most slots (reclaimed by the
// next Open) and never tears a reachable record. writes are in planning
// order; when several planned writes land on one bucket, the last one
// owns the flip.
func (s *Store) commitWrites(writes ...*write) error {
	// Flip in ascending bucket order, so the charged write sequence is a
	// function of the planned set alone. The stable sort keeps planning
	// order within a bucket, which writeFlips relies on.
	s.flips = append(s.flips[:0], writes...)
	slices.SortStableFunc(s.flips, func(a, b *write) int { return cmp.Compare(a.bucket, b.bucket) })
	// Drop the batch's writes once committed, so the scratch does not
	// keep the caller's keys and values reachable.
	defer clear(s.flips)

	if s.singleTx() {
		tx, err := s.db.Begin()
		if err != nil {
			return s.observe(err)
		}
		err = s.writeRecords(tx, writes)
		if err == nil {
			err = s.writeFlips(tx)
		}
		return s.endTx(tx, err)
	}
	err := s.runTx(func(tx repro.Tx) error { return s.writeRecords(tx, writes) })
	if err != nil && !errors.Is(err, repro.ErrSafetyUnavailable) {
		return err
	}
	degraded := err
	if err := s.runTx(s.writeFlips); err != nil {
		return err
	}
	return degraded
}

// writeRecords is commit phase one: every planned put's record lands in
// its slot.
func (s *Store) writeRecords(tx repro.Tx, writes []*write) error {
	for _, w := range writes {
		if w.del {
			continue
		}
		off := s.geo.slotOff(uint64(w.slot))
		n := slotHeader + len(w.key) + len(w.val)
		if err := tx.SetRange(off, n); err != nil {
			return err
		}
		s.vbuf = grow(s.vbuf, n)
		binary.LittleEndian.PutUint32(s.vbuf[:4], uint32(len(w.key)))
		binary.LittleEndian.PutUint32(s.vbuf[4:8], uint32(len(w.val)))
		copy(s.vbuf[slotHeader:], w.key)
		copy(s.vbuf[slotHeader+len(w.key):], w.val)
		if err := tx.Write(off, s.vbuf); err != nil {
			return err
		}
	}
	return nil
}

// writeFlips is commit phase two: one bucket word per planned bucket, in
// the ascending order commitWrites staged in s.flips.
func (s *Store) writeFlips(tx repro.Tx) error {
	for i, w := range s.flips {
		if i+1 < len(s.flips) && s.flips[i+1].bucket == w.bucket {
			continue // a later planned write owns this bucket
		}
		word := uint64(bucketTomb)
		if !w.del {
			word = uint64(w.slot) + bucketBase
		}
		off := s.geo.bucketOff(w.bucket)
		if err := tx.SetRange(off, bucketWidth); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(s.word[:], word)
		if err := tx.Write(off, s.word[:]); err != nil {
			return err
		}
	}
	return nil
}

// singleTx reports whether the commit protocol may collapse record
// writes and bucket flips into one atomic transaction. Evaluated per
// commit, not at Open: an elastic deployment opened at one shard can
// grow mid-lifetime, after which the two-phase order (records first,
// flips second) is what keeps partially committed batches recoverable.
func (s *Store) singleTx() bool { return s.db.Shards() == 1 }

// applyWrite folds one committed write into the in-memory acceleration.
func (s *Store) applyWrite(w *write, p probeResult) {
	switch {
	case w.del:
		s.free = append(s.free, uint32(p.slot))
		s.live--
		s.tombs++
	case p.found:
		// Overwrite: the displaced record's slot returns to the pool.
		s.free = append(s.free, uint32(p.slot))
	default:
		s.live++
		if p.reusedTomb {
			s.tombs--
		}
	}
}

// Scan visits up to limit live entries in bucket order, starting at
// start's natural bucket (or bucket 0 when start is nil), wrapping once
// around the table — the short range scan of YCSB-style workloads.
// Iteration order is hash order, not key order. The entries are staged
// under the store's lock and fn runs after it is released, so a callback
// is free to call back into the Store (Get, Put, even another Scan)
// without deadlocking; what it sees is a consistent snapshot taken at
// the Scan call, not the live table. fn's slices are reused between
// calls; copy what must outlive the callback. Returns the number of
// entries delivered to fn; a non-nil fn error stops the scan and is
// returned. A read error during staging delivers nothing.
func (s *Store) Scan(start []byte, limit int, fn func(key, value []byte) error) (int, error) {
	s.mu.Lock()
	flat, bounds, err := s.stageScan(s.readPrimary, start, limit)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for i, bd := range bounds {
		if err := fn(flat[bd.off:bd.off+bd.kl], flat[bd.off+bd.kl:bd.off+bd.kl+bd.vl]); err != nil {
			return i + 1, err
		}
	}
	return len(bounds), nil
}

// scanEntry locates one staged entry inside a scan's flat buffer.
type scanEntry struct {
	off, kl, vl int
}

// stageScan copies up to limit live entries out of the table into one
// flat buffer, under s.mu. The buffer is call-local: it must survive
// after the lock is released, and concurrent Scans must not share it, so
// it cannot live in the Store's recycled scratch space.
func (s *Store) stageScan(rd readFn, start []byte, limit int) ([]byte, []scanEntry, error) {
	if s.broken {
		return nil, nil, ErrBroken
	}
	if limit <= 0 {
		return nil, nil, nil
	}
	b0 := uint64(0)
	if len(start) > 0 {
		b0 = hash(start) & s.geo.mask()
	}
	var flat []byte
	var bounds []scanEntry
	for i := uint64(0); i < s.geo.bucketCount && len(bounds) < limit; i++ {
		b := (b0 + i) & s.geo.mask()
		w, err := s.readBucket(rd, b)
		if err != nil {
			return nil, nil, s.observe(err)
		}
		if w == bucketEmpty || w == bucketTomb {
			continue
		}
		slot := w - bucketBase
		kl, vl, err := s.readSlotHeader(rd, slot)
		if err != nil {
			return nil, nil, s.observe(err)
		}
		off := len(flat)
		flat = slices.Grow(flat, kl+vl)[:off+kl+vl]
		if err := rd(s.geo.slotOff(slot)+slotHeader, flat[off:]); err != nil {
			return nil, nil, s.observe(err)
		}
		bounds = append(bounds, scanEntry{off: off, kl: kl, vl: vl})
	}
	return flat, bounds, nil
}
