package tpc

import (
	"fmt"
	"math/rand/v2"

	"repro"
)

// FaultDB is the driver-facing surface of a deployment under test: the
// full data plane (repro.DB) plus the fault-injection and placement
// surface (repro.Admin), as *repro.Cluster provides them.
type FaultDB interface {
	repro.DB
	repro.Admin
}

// stream is one deterministic transaction sequence: how to open its
// transactions (a deployment's Begin, or one replica group's BeginShard),
// a workload laid out for that address space, the stream's generator and
// its transaction index. It is the single transaction-driving code path
// every deployment-level driver shares — availability, chaos and the
// sharded multi-client runs all advance their workloads through
// stream.one.
type stream struct {
	begin func() (repro.Tx, error)
	w     Workload
	src   *rand.PCG
	r     *rand.Rand
	n     int64
	tx    touchTx
}

// newStream starts a stream at transaction 0 with NewRand(seed)'s draws.
func newStream(begin func() (repro.Tx, error), w Workload, seed uint64) *stream {
	src := newPCG(seed)
	return &stream{begin: begin, w: w, src: src, r: rand.New(src)}
}

// one executes the stream's next transaction. A deployment admits each
// replica group at a transaction's first touch, so a refusal (a dead
// primary, an unmet safety level) surfaces from the workload's first
// operation. The generator is then rewound: the refused transaction
// consumes no draws, and the driver's retry replays it exactly.
func (s *stream) one() error {
	tx, err := s.begin()
	if err != nil {
		return err
	}
	saved := *s.src
	s.tx = touchTx{Tx: tx}
	if err := s.w.Txn(s.r, &s.tx, s.n); err != nil {
		if !s.tx.touched {
			*s.src = saved
		}
		if abortErr := tx.Abort(); abortErr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, abortErr)
		}
		return err
	}
	s.n++
	return tx.Commit()
}

// touchTx records whether any operation of a transaction succeeded — that
// is, whether the transaction got past admission.
type touchTx struct {
	repro.Tx
	touched bool
}

func (t *touchTx) SetRange(off, n int) error       { return t.note(t.Tx.SetRange(off, n)) }
func (t *touchTx) Write(off int, src []byte) error { return t.note(t.Tx.Write(off, src)) }
func (t *touchTx) Read(off int, dst []byte) error  { return t.note(t.Tx.Read(off, dst)) }

func (t *touchTx) note(err error) error {
	t.touched = t.touched || err == nil
	return err
}
