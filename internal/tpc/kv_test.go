package tpc

import (
	"testing"

	"repro"
)

func kvDeployment(t testing.TB, shards int) repro.DB {
	t.Helper()
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  1 << 20,
	}
	if shards <= 1 {
		c, err := repro.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sc, err := repro.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunKVMixes drives every mix over one group and four through the one DB
// interface and checks the operation accounting.
func TestRunKVMixes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, mix := range KVMixes() {
			name := map[int]string{1: "cluster/", 4: "sharded4/"}[shards] + mix
			t.Run(name, func(t *testing.T) {
				db := kvDeployment(t, shards)
				res, err := RunKV(db, KVOptions{
					Mix: mix, Records: 500, Ops: 1500, Warmup: 100, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				total := res.Reads + res.Updates + res.Inserts + res.Scans
				if total != res.Ops || res.Ops != 1500 {
					t.Fatalf("op accounting: %d+%d+%d+%d != %d",
						res.Reads, res.Updates, res.Inserts, res.Scans, res.Ops)
				}
				if res.OPS <= 0 || res.Elapsed <= 0 {
					t.Fatalf("no throughput measured: %+v", res)
				}
				switch mix {
				case MixReadHeavy:
					if res.Reads < res.Updates*10 || res.Scans != 0 {
						t.Fatalf("read-heavy mix off: %+v", res)
					}
				case MixUpdateHeavy:
					if res.Reads == 0 || res.Updates == 0 || res.Scans != 0 {
						t.Fatalf("update-heavy mix off: %+v", res)
					}
				case MixScan:
					if res.Scans < res.Inserts*10 || res.ScanItems == 0 {
						t.Fatalf("scan mix off: %+v", res)
					}
				}
				if res.Net.Total() == 0 {
					t.Fatal("no SAN traffic measured on a replicated deployment")
				}
			})
		}
	}
}

// TestRunKVDeterministic pins the driver's reproducibility: same seed,
// same simulated throughput, on one group and four.
func TestRunKVDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		var first KVResult
		for round := 0; round < 2; round++ {
			res, err := RunKV(kvDeployment(t, shards), KVOptions{
				Mix: MixUpdateHeavy, Records: 300, Ops: 800, Warmup: 50, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = res
				continue
			}
			if res != first {
				t.Fatalf("shards=%d run not deterministic:\n  %+v\n  %+v", shards, first, res)
			}
		}
	}
}
