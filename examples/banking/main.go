// Banking: a Debit-Credit-style funds-transfer service on a passive
// primary-backup pair — the paper's motivating scenario. The program runs
// transfers between accounts, crashes the primary mid-stream, fails over,
// and audits the backup: every committed transfer is present, money is
// conserved, and the in-flight transfer is rolled back.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand/v2"

	"repro"
)

const (
	accounts       = 10_000
	recordSize     = 64 // account record: balance u64 + padding
	initialBalance = 1_000
	transfers      = 5_000
)

// bank is written against the DB interface: the same service code runs
// over any deployment, one replica group or many.
type bank struct {
	c repro.DB
}

func (b *bank) balanceOf(tx repro.Tx, acct int) (uint64, error) {
	var buf [8]byte
	if err := tx.Read(acct*recordSize, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (b *bank) setBalance(tx repro.Tx, acct int, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return tx.Write(acct*recordSize, buf[:])
}

// transfer moves amount between two accounts in one transaction.
func (b *bank) transfer(from, to int, amount uint64) error {
	tx, err := b.c.Begin()
	if err != nil {
		return err
	}
	if err := tx.SetRange(from*recordSize, 8); err != nil {
		return err
	}
	if err := tx.SetRange(to*recordSize, 8); err != nil {
		return err
	}
	fb, err := b.balanceOf(tx, from)
	if err != nil {
		return err
	}
	if fb < amount {
		return tx.Abort() // insufficient funds
	}
	tb, err := b.balanceOf(tx, to)
	if err != nil {
		return err
	}
	if err := b.setBalance(tx, from, fb-amount); err != nil {
		return err
	}
	if err := b.setBalance(tx, to, tb+amount); err != nil {
		return err
	}
	return tx.Commit()
}

func main() {
	cluster, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.PassiveBackup,
		DBSize:  accounts * recordSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	b := &bank{c: cluster}

	// Fund the accounts (raw load: initial state precedes replication).
	buf := make([]byte, recordSize)
	binary.LittleEndian.PutUint64(buf, initialBalance)
	for a := 0; a < accounts; a++ {
		if err := cluster.Load(a*recordSize, buf); err != nil {
			log.Fatal(err)
		}
	}

	r := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < transfers; i++ {
		from, to := r.IntN(accounts), r.IntN(accounts)
		if from == to {
			continue
		}
		if err := b.transfer(from, to, uint64(1+r.IntN(200))); err != nil {
			log.Fatalf("transfer %d: %v", i, err)
		}
	}
	committed := cluster.Committed()
	traffic := cluster.NetTraffic()
	fmt.Printf("committed %d transfers; shipped %d bytes to the backup "+
		"(%dB modified, %dB undo, %dB metadata)\n",
		committed, traffic.Total(), traffic.ModifiedBytes, traffic.UndoBytes, traffic.MetaBytes)

	// Leave one transfer in flight and pull the plug.
	tx, err := cluster.Begin()
	if err != nil {
		log.Fatal(err)
	}
	must(tx.SetRange(0, 8))
	must(tx.Write(0, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0}))
	must(cluster.CrashPrimary())
	must(cluster.Failover())

	// Audit the surviving state.
	var total uint64
	rec := make([]byte, 8)
	for a := 0; a < accounts; a++ {
		cluster.ReadRaw(a*recordSize, rec)
		total += binary.LittleEndian.Uint64(rec)
	}
	fmt.Printf("after failover: %d committed transactions survive\n", cluster.Committed())
	fmt.Printf("audit: total money = %d (expected %d) — %s\n",
		total, uint64(accounts*initialBalance), verdict(total == accounts*initialBalance))
	if cluster.Committed() < committed {
		fmt.Printf("1-safe window: last %d commit(s) were lost with the primary, as designed\n",
			committed-cluster.Committed())
	}
}

func verdict(ok bool) string {
	if ok {
		return "conserved"
	}
	return "CORRUPTED"
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
