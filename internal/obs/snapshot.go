package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Snapshot is a serializable point-in-time copy of a registry: the
// shape metrics travel in across every exposure surface (DB.Metrics on
// the facades, the kvwire METRICS opcode body, the Prometheus text
// endpoint's source). The zero value means "no registry attached".
type Snapshot struct {
	// Window is the registry's reset epoch: it increments on every
	// ResetMeasurement, so a scraper computing deltas between two
	// snapshots can discard pairs that straddle a window cut.
	Window   uint64                  `json:"window"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
	Events   []Event                 `json:"events,omitempty"`
}

// Empty reports whether the snapshot carries no instruments and no
// events — the signature of a deployment with observability off.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Hists) == 0 && len(s.Events) == 0
}

// Counter returns the named counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's level (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Hist returns the named histogram snapshot (zero if absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Hists[name] }

// EventsKind returns the snapshot's events of the given kind, in ring
// order.
func (s Snapshot) EventsKind(kind string) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Merge folds other into s: counters and gauges sum, same-name
// histograms merge bucket-wise, events concatenate (the deployment
// stamps Shard before merging so provenance survives), and Window takes
// the max. Merging into a zero Snapshot copies other.
func (s *Snapshot) Merge(other Snapshot) {
	if other.Window > s.Window {
		s.Window = other.Window
	}
	if len(other.Counters) > 0 {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64, len(other.Counters))
		}
		for n, v := range other.Counters {
			s.Counters[n] += v
		}
	}
	if len(other.Gauges) > 0 {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64, len(other.Gauges))
		}
		for n, v := range other.Gauges {
			s.Gauges[n] += v
		}
	}
	if len(other.Hists) > 0 {
		if s.Hists == nil {
			s.Hists = make(map[string]HistSnapshot, len(other.Hists))
		}
		for n, h := range other.Hists {
			cur := s.Hists[n]
			cur.Merge(h)
			s.Hists[n] = cur
		}
	}
	s.Events = append(s.Events, other.Events...)
}

// Names returns every metric name present in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// promName mangles a dotted metric name into the Prometheus exposition
// charset ([a-zA-Z_:][a-zA-Z0-9_:]*): dots become underscores.
func promName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// promQuantiles are the summary quantiles the text endpoint exports.
var promQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as-is,
// histograms as summaries with p50/p90/p99/p999 quantiles plus _sum
// (seconds) and _count. Metric names have dots mangled to underscores.
func WritePrometheus(w io.Writer, s Snapshot) error {
	// Deterministic output order: sorted within each kind.
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		emit("# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		emit("# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Hists[n]
		pn := promName(n)
		emit("# TYPE %s summary\n", pn)
		for _, q := range promQuantiles {
			emit("%s{quantile=\"%g\"} %.9f\n", pn, q, h.Percentile(q).Seconds())
		}
		emit("%s_sum %.9f\n%s_count %d\n", pn, (float64(h.Sum) / 1e9), pn, h.Count)
	}
	emit("# TYPE obs_window gauge\nobs_window %d\n", s.Window)
	emit("# TYPE obs_events gauge\nobs_events %d\n", len(s.Events))
	return err
}
