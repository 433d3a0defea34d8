package kv

import (
	"errors"

	"repro"
)

// Txn is a multi-key transaction: reads see the store plus the
// transaction's own buffered writes; Put and Delete buffer until Commit,
// which persists the whole set through the store's two-phase protocol —
// every record lands in its slot before any bucket flips, so a crash
// mid-commit never exposes a half-written record. On a single-shard
// deployment (a Cluster, or a one-shard ShardedCluster) the commit is one
// underlying transaction and therefore atomic: all of the transaction's
// keys become visible together or not at all. On a multi-shard deployment
// the bucket flips commit shard by shard — the underlying layer has no
// cross-shard atomic commit — so a crash at the wrong instant can expose
// a prefix of the transaction's keys; each individual key still flips
// atomically.
type Txn struct {
	s     *Store
	done  bool
	order []string        // distinct keys in first-touch order
	ops   map[string]txOp // latest buffered op per key
}

type txOp struct {
	val []byte
	del bool
}

// Begin opens a multi-key transaction. The store stays usable for
// independent operations while the transaction buffers; conflicting
// writes outside the transaction are last-writer-wins at Commit.
func (s *Store) Begin() (*Txn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return nil, ErrBroken
	}
	return &Txn{s: s, ops: make(map[string]txOp)}, nil
}

// Get returns the value under key as the transaction sees it: a buffered
// Put or Delete wins over the store.
func (t *Txn) Get(key []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if len(key) == 0 {
		return nil, ErrEmptyKey
	}
	if op, ok := t.ops[string(key)]; ok {
		if op.del {
			return nil, ErrNotFound
		}
		out := make([]byte, len(op.val))
		copy(out, op.val)
		return out, nil
	}
	return t.s.Get(key)
}

// Put buffers a write of value under key.
func (t *Txn) Put(key, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key)+len(value) > t.s.geo.payload() {
		return ErrTooLarge
	}
	t.track(key)
	t.ops[string(key)] = txOp{val: append([]byte(nil), value...)}
	return nil
}

// Delete buffers a deletion of key; deleting an absent key is a no-op at
// Commit.
func (t *Txn) Delete(key []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	t.track(key)
	t.ops[string(key)] = txOp{del: true}
	return nil
}

func (t *Txn) track(key []byte) {
	if _, seen := t.ops[string(key)]; !seen {
		t.order = append(t.order, string(key))
	}
}

// Abort discards the buffered writes.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	return nil
}

// Commit persists every buffered write. On error nothing is applied
// (single-shard deployments) or at most a shard-prefix of the flips is
// (multi-shard; see the type comment). A repro.ErrSafetyUnavailable
// return means the writes are durable on the serving node but were not
// acknowledged at the configured safety level.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return ErrBroken
	}
	if len(t.order) == 0 {
		return nil
	}

	// Plan: probe every key against the live table shadowed by the flips
	// planned so far, allocating slots as puts are laid out.
	overlay := make(map[uint64]uint64, len(t.order))
	writes := make([]*write, 0, len(t.order))
	probes := make([]probeResult, 0, len(t.order))
	fail := func(err error) error {
		s.unalloc(writes...)
		return err
	}
	for _, k := range t.order {
		op := t.ops[k]
		key := []byte(k)
		p, err := s.probe(s.readPrimary, key, overlay)
		if err != nil {
			return fail(s.observe(err))
		}
		if op.del {
			if !p.found {
				continue // deleting an absent key: no-op
			}
			w := &write{key: key, del: true, bucket: p.bucket}
			writes = append(writes, w)
			probes = append(probes, p)
			overlay[p.bucket] = bucketTomb
			continue
		}
		if !p.found && p.full {
			return fail(ErrFull)
		}
		w := &write{key: key, val: op.val, bucket: p.bucket}
		if err := s.alloc(w); err != nil {
			return fail(err)
		}
		writes = append(writes, w)
		probes = append(probes, p)
		overlay[p.bucket] = uint64(w.slot) + bucketBase
	}
	if len(writes) == 0 {
		return nil
	}

	err := s.commitWrites(writes...)
	if err != nil && !errors.Is(err, repro.ErrSafetyUnavailable) {
		return fail(err)
	}
	for i, w := range writes {
		s.applyWrite(w, probes[i])
	}
	return err
}
