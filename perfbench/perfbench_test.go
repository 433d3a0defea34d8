package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// testSeconds is long enough for every workload's sim window.
const testSeconds = 4 * time.Second

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out []byte) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return res
}

// checkEmitted asserts the result line carries exactly catalog's
// metrics, each with its unit, and a clean audit.
func checkEmitted(t *testing.T, r *result, w workload, catalog []metric) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf, w, catalog); err != nil {
		t.Fatal(err)
	}
	res := lastLine(t, buf.Bytes())
	if res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
		t.Fatalf("run not clean: %v (first failure: %v)", res, r.firstErr)
	}
	metrics := res["metrics"].(map[string]any)
	if len(metrics) != len(catalog) {
		t.Errorf("%d metrics emitted, catalog has %d", len(metrics), len(catalog))
	}
	for _, m := range catalog {
		got, ok := metrics[m.name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if got["unit"] != m.unit {
			t.Errorf("metric %s: unit %v, want %s", m.name, got["unit"], m.unit)
		}
		if v, ok := got["value"].(float64); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: value %v", m.name, got["value"])
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			scratch := t.TempDir()
			r, err := untracedRun(w, 1, testSeconds, scratch)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, r, w, endToEnd)
			for _, m := range endToEnd {
				if r.metrics[m.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, r.metrics[m.name])
				}
			}
			r, err = tracedRun(w, 1, testSeconds, scratch)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, r, w, perLayer)
			for _, m := range perLayer {
				// The figures of one workload only are nonzero there.
				if m.on == w.name && r.metrics[m.name] <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", m.name, r.metrics[m.name])
				}
			}
			if w.durable {
				for _, n := range []string{"wal.commit_us", "wal.fsyncs_per_commit", "wal.fsync_bytes_per_commit",
					"wal.restart_replayed", "wal.restart_truncated_bytes", "restart_s"} {
					if r.metrics[n] <= 0 {
						t.Errorf("disk-tier figure %s = %v, want > 0", n, r.metrics[n])
					}
				}
			}
			if w.failover {
				for _, n := range []string{"san.sync_bytes", "san.control_bytes_per_s", "failover.crashes", "failover.takeover_ms",
					"failover.heal_ms", "failover.mttd_sim_us", "repair.restore_s", "unavail_ms"} {
					if r.metrics[n] <= 0 {
						t.Errorf("failover figure %s = %v, want > 0", n, r.metrics[n])
					}
				}
			}
		})
	}
}

// TestAuditFlagsPlantedLoss plants an acknowledgement newer than anything
// written: the read-back must count it as stale.
func TestAuditFlagsPlantedLoss(t *testing.T) {
	w, _ := findWorkload("kv-inproc-mixed")
	in := newInputs(w, 1)
	e, err := setup(w, in, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.teardown()
	l := newLoad(w, in)
	if lost, err := audit(l, e.store.Get); lost != 0 || err != nil {
		t.Fatalf("clean store: %d lost (%v)", lost, err)
	}
	l.acked[42].Store(7)
	l.issued[42] = 7
	lost, err := audit(l, e.store.Get)
	if lost != 1 || err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("planted loss: %d lost (%v), want 1 stale", lost, err)
	}
}

// TestSimCountsRepeat runs the serial workload twice on one seed: the
// sim clock over the fixed op window must agree exactly.
func TestSimCountsRepeat(t *testing.T) {
	w, _ := findWorkload("kv-inproc-mixed")
	var sims []float64
	for range 2 {
		r, err := untracedRun(w, 3, time.Second, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, r.metrics["sim_ops_per_s"])
	}
	if sims[0] != sims[1] {
		t.Fatalf("sim_ops_per_s %v then %v on one seed", sims[0], sims[1])
	}
}

// TestSpansAccount checks that on the serial workload the kv self times
// plus the db child time per op add up to the kv span time per op.
func TestSpansAccount(t *testing.T) {
	w, _ := findWorkload("kv-inproc-mixed")
	p, err := runPass(w, newInputs(w, 1), 1, time.Second, t.TempDir(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	tt := p.e.tr.totals()
	v := p.layers
	puts, gets := float64(tt.count[spanKVPut]), float64(tt.count[spanKVGet])
	self := (v["kv.put_self_us"]*puts + v["kv.get_self_us"]*gets) / (puts + gets)
	children := v["db.begin_us"] + v["db.write_us"] + v["db.commit_us"] + v["db.read_us"]
	if got, want := self+children, v["kv.span_us"]; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("self %.4f + children %.4f = %.4f us/op, span %.4f us/op", self, children, got, want)
	}
	if v["kv.reads_per_get"] < 3 || v["kv.txns_per_put"] != 1 {
		t.Fatalf("reads/get %v, txns/put %v", v["kv.reads_per_get"], v["kv.txns_per_put"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalog in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, bw := range b.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Error(err)
		} else if bw.Why != w.why {
			t.Errorf("workload %s: why %q, want %q", w.name, bw.Why, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalog has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, m)
		}
	}
}
