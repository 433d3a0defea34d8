package main

import (
	"math"
	"slices"
)

// metric is one catalogued measurement. End-to-end metrics carry the
// regression bound BENCHMARK.json records; per-layer metrics name the
// end-to-end metric and workload they should move, and the workloads
// whose path contains the layer (elsewhere they read 0). This catalog is
// the layer-metric to end-to-end-metric to workload map; BENCHMARK.json
// repeats its names, units and bounds. The end-to-end figures listed here
// (the p99s) are taken from an untraced pass; they are not bounded, being
// too unsteady. The workloads BENCHMARK.json leaves out print the figures
// of their own layers as notes (see pass.layerValues): the disk tier on
// served-durable-writes; client retries, server reopens, takeover, repair
// and unavail_ms on served-failover.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
	moves  string  // per-layer only
	on     string  // per-layer only: where the metric is measured
}

// endToEnd is what every untraced run prints, on every workload. The tail
// is p90: on two shared vCPUs a served run's p99 moves 20-40% from run to
// run with the host's wake-up latency, more than any bound could allow,
// while p90 moves under 5%. The p99s are printed as notes and listed with
// the layers.
var endToEnd = []metric{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "sim_ops_per_s", unit: "1/s", better: "higher", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	onAll    = "all workloads"
	onServed = "served-mixed"
	onInproc = "kv-inproc-mixed"
)

// perLayer is what every traced run prints, on every workload.
var perLayer = []metric{
	{name: "get_p99_us", unit: "us", better: "lower", moves: "end to end, untraced: the tail beyond get_p90_us", on: onAll},
	{name: "put_p99_us", unit: "us", better: "lower", moves: "end to end, untraced: the tail beyond put_p90_us", on: onAll},
	{name: "kvclient.p999_us", unit: "us", better: "lower", moves: "diagnostic: where the served tail stalls", on: onServed},
	{name: "kvserver.exec_get_p50_us", unit: "us", better: "lower", moves: "get_p50_us, ops_per_s on served-mixed; nothing on kv-inproc-mixed", on: onServed},
	{name: "kvserver.exec_put_p50_us", unit: "us", better: "lower", moves: "put_p50_us, ops_per_s on served-mixed; nothing on kv-inproc-mixed", on: onServed},
	{name: "kvserver.wire_get_p50_us", unit: "us", better: "lower", moves: "get_p50_us, ops_per_s on served-mixed; nothing on kv-inproc-mixed", on: onServed},
	{name: "kvserver.wire_put_p50_us", unit: "us", better: "lower", moves: "put_p50_us, ops_per_s on served-mixed; nothing on kv-inproc-mixed", on: onServed},
	{name: "kv.span_us", unit: "us", better: "lower", moves: "put_p50_us, get_p50_us on kv-inproc-mixed", on: onInproc},
	{name: "kv.put_self_us", unit: "us", better: "lower", moves: "put_p50_us on kv-inproc-mixed", on: onInproc},
	{name: "kv.get_self_us", unit: "us", better: "lower", moves: "get_p50_us on kv-inproc-mixed", on: onInproc},
	{name: "kv.reads_per_get", unit: "reads/get", better: "lower", moves: "get_p50_us on kv-inproc-mixed", on: onInproc},
	{name: "kv.reads_per_put", unit: "reads/put", better: "lower", moves: "put_p50_us on kv-inproc-mixed", on: onInproc},
	{name: "kv.txns_per_put", unit: "txns/put", better: "lower", moves: "put_p50_us on kv-inproc-mixed", on: onAll},
	{name: "kv.bytes_written_per_put", unit: "B/put", better: "lower", moves: "put_p50_us on kv-inproc-mixed", on: onAll},
	{name: "db.begin_us", unit: "us/op", better: "lower", moves: "ops_per_s, put_p50_us on kv-inproc-mixed; less on served-mixed", on: onAll},
	{name: "db.write_us", unit: "us/op", better: "lower", moves: "ops_per_s, put_p50_us on kv-inproc-mixed; less on served-mixed", on: onAll},
	{name: "db.commit_us", unit: "us/op", better: "lower", moves: "ops_per_s, put_p50_us on kv-inproc-mixed; less on served-mixed", on: onAll},
	{name: "db.read_us", unit: "us/op", better: "lower", moves: "ops_per_s, get_p50_us on kv-inproc-mixed; less on served-mixed", on: onAll},
	{name: "db.busy_frac", unit: "frac", better: "lower", moves: "ops_per_s on kv-inproc-mixed; hardly at all on served-durable-writes", on: onAll},
	{name: "sim.us_per_commit", unit: "us", better: "lower", moves: "sim_ops_per_s on every workload", on: onAll},
	{name: "san.modified_bytes_per_commit", unit: "B/commit", better: "lower", moves: "sim_ops_per_s on every workload", on: onAll},
	{name: "san.meta_bytes_per_commit", unit: "B/commit", better: "lower", moves: "sim_ops_per_s on every workload", on: onAll},
	{name: "bench.trace_overhead_frac", unit: "frac", better: "lower", moves: "diagnostic: traced vs untraced ops_per_s", on: onAll},
}

// values holds one run's metrics by name.
type values map[string]float64

// percentileUs is the nearest-rank q-quantile of sorted ns latencies, in
// microseconds.
func percentileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// merged returns the sorted union of every caller's latencies of kind
// in window w, or in every window when w < 0.
func merged(callers []*caller, kind, w int) []uint32 {
	var out []uint32
	for _, c := range callers {
		for i, lat := range c.lat[kind] {
			if w < 0 || i == w {
				out = append(out, lat...)
			}
		}
	}
	slices.Sort(out)
	return out
}

// windowed returns the q-quantile of kind's latencies in microseconds,
// taken per chunk of consecutive windows, median over chunks. A chunk
// grows until at least ten samples lie beyond its quantile, so a rare op
// kind gets fewer, larger chunks. The median keeps one window the host
// stalled from moving the figure, while a cost the program pays in most
// windows still counts.
func windowed(callers []*caller, kind, windows int, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var chunks [][]uint32
	var cur []uint32
	for w := range windows {
		cur = append(cur, merged(callers, kind, w)...)
		if len(cur) >= need {
			chunks, cur = append(chunks, cur), nil
		}
	}
	switch {
	case len(chunks) == 0:
		chunks = [][]uint32{cur}
	case len(cur) > 0:
		last := len(chunks) - 1
		chunks[last] = append(chunks[last], cur...)
	}
	per := make([]float64, len(chunks))
	for i, c := range chunks {
		slices.Sort(c)
		per[i] = percentileUs(c, q)
	}
	return median(per)
}

// opsPerWindow is the median over windows of the ops completed in one.
func opsPerWindow(callers []*caller, windows int) float64 {
	per := make([]float64, windows)
	for _, c := range callers {
		for _, lat := range c.lat {
			for w := range per {
				per[w] += float64(len(lat[w]))
			}
		}
	}
	return median(per)
}

func sortedKeys(v values) []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
