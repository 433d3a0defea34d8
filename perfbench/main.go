// Command perfbench is the repository's benchmark: one named workload
// against the real public surfaces (repro.New, kv.Store, an in-process
// kvserver on loopback, kvclient), timed on the wall clock, with every
// acknowledged write audited.
//
//	bash perfbench/run.sh --workload served-mixed --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced and then traced, and prints the
// per-layer metrics, including the tracing overhead. Human-readable
// lines come first; the last line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. The exit code is non-zero when any
// operation failed or any acknowledged write was lost.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "seed for every key, value and op sequence")
		secs    = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for WAL files and the span dump")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*secs < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err == nil {
		err = os.MkdirAll(*scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*secs) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d, *scratch)
	} else {
		res, err = untracedRun(w, *seed, d, *scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	catalog := endToEnd
	if *trace == 1 {
		catalog = perLayer
	}
	if err := res.print(os.Stdout, w, catalog); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	lost              int // acknowledged writes missing or stale in an audit
	firstErr          error
	metrics           values // the catalog's metrics
	notes             values // further end-to-end figures, printed only
}

func (r *result) correct() bool { return r.failed == 0 && r.lost == 0 }

// add folds one pass's counts into the result.
func (r *result) add(p *pass) {
	r.attempted += p.l.attempted.Load()
	r.failed += p.l.failed.Load()
	r.lost += p.lost
	if r.firstErr == nil {
		r.firstErr = p.l.firstErr
	}
	if r.firstErr == nil {
		r.firstErr = p.auditErr
	}
}

// setupRuns is how often an untraced run sets the deployment up; setup_s
// is the median.
const setupRuns = 21

func untracedRun(w workload, seed int64, d time.Duration, scratch string) (*result, error) {
	p, err := runPass(w, newInputs(w, seed), seed, d, scratch, false, setupRuns)
	if err != nil {
		return nil, err
	}
	r := &result{metrics: p.endToEnd(), notes: p.notes()}
	r.add(p)
	return r, nil
}

// tracedRun measures the workload untraced and then traced: the
// per-layer metrics come from the traced pass, the overhead from the two
// passes' throughput and the end-to-end figures BENCHMARK.json does not
// bound (the p99s, unavail_ms, restart_s) from the untraced one.
func tracedRun(w workload, seed int64, d time.Duration, scratch string) (*result, error) {
	in := newInputs(w, seed)
	plain, err := runPass(w, in, seed, d, scratch, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(w, in, seed, d, scratch, true, 1)
	if err != nil {
		return nil, err
	}
	r := &result{metrics: traced.layers, notes: plain.notes()}
	for _, n := range []string{"get_p99_us", "put_p99_us", "unavail_ms", "restart_s"} {
		if v, ok := r.notes[n]; ok {
			r.metrics[n] = v
		}
	}
	r.add(plain)
	r.add(traced)
	r.metrics["bench.trace_overhead_frac"] = 1 - traced.endToEnd()["ops_per_s"]/plain.endToEnd()["ops_per_s"]
	if err := traced.e.tr.dump(filepath.Join(scratch, "spans-"+w.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	return r, nil
}

// print writes one human-readable line per catalog metric, then one per
// further figure (a note), then the JSON result line.
func (r *result) print(f io.Writer, w workload, catalog []metric) error {
	fmt.Fprintf(f, "workload %s: %d attempted, %d failed, %d acknowledged writes lost\n", w.name, r.attempted, r.failed, r.lost)
	if r.firstErr != nil {
		fmt.Fprintf(f, "first failure: %v\n", r.firstErr)
	}
	out := make(map[string]any, len(catalog))
	for _, m := range catalog {
		v := r.metrics[m.name]
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
		delete(r.notes, m.name)
	}
	for n, v := range r.metrics {
		if _, ok := out[n]; !ok {
			r.notes[n] = v
		}
	}
	for _, n := range sortedKeys(r.notes) {
		fmt.Fprintf(f, "  %-32s %14.4f (note)\n", n, r.notes[n])
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed + int64(r.lost),
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// runPass sets the deployment up setups times (keeping the last), warms
// it up, measures for d and ends with the workload's audit.
func runPass(w workload, in *inputs, seed int64, d time.Duration, scratch string, traced bool, setups int) (*pass, error) {
	p := &pass{w: w, in: in, l: newLoad(w, in)}
	var e *env
	for i := range setups {
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(w, in, scratch, traced); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		if i < setups-1 {
			if err := e.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	p.e = e
	defer e.teardown()
	for i := range w.callers {
		var api kvAPI = e.store
		switch {
		case w.served:
			api = e.clients[i]
		case traced:
			api = &tracedStore{s: e.store, t: e.tr}
		}
		p.callers = append(p.callers, newCaller(i, api, p.l, numWindows(d)))
	}
	warmup(p.callers, w.warmupOps)
	runtime.GC()
	if err := p.measure(d); err != nil {
		return nil, err
	}
	if err := p.finish(seed); err != nil {
		return nil, err
	}
	return p, e.teardown()
}
