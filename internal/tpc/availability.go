package tpc

import (
	"errors"
	"fmt"
	"time"

	"repro"
)

// RunAvailability drives the paper's availability experiment end to end:
// throughput delivered while a replica fails and recovers. The timeline is
// measured in fixed simulated-time windows — healthy windows first, then
// the primary is crashed, the cluster fails over, an online repair
// (RepairAsync) starts, and windows keep being measured while the chunked
// state transfer shares the SAN with the live commit stream; once the
// repair cuts over, a few restored windows close the run. The windowed
// transactions-per-second curve, the repair duration and bytes shipped,
// and the time back to full redundancy are the availability metrics
// production replica managers track.
//
// The cluster must tolerate serving with a degraded replica set between
// the failover and the repair cut-over — 1-safe always does; quorum and
// 2-safe refuse commits until enough replicas are back, which the result
// reports as zero-throughput windows rather than an error.

// AvailabilityOptions tunes a RunAvailability timeline.
type AvailabilityOptions struct {
	// Window is the simulated duration of one throughput window
	// (default 10 ms).
	Window time.Duration
	// HealthyWindows measures the pre-crash baseline (default 3).
	HealthyWindows int
	// RestoredWindows measures after the repair completes (default 3).
	RestoredWindows int
	// MaxRepairWindows caps the windows spent waiting for the repair
	// (default 200); the run errors out if the repair has not completed
	// by then.
	MaxRepairWindows int
	// Warmup transactions run before the first window (cache and SAN
	// state carry over; counters reset).
	Warmup int64
	// Seed feeds the deterministic generator.
	Seed uint64
}

func (o AvailabilityOptions) withDefaults() AvailabilityOptions {
	if o.Window <= 0 {
		o.Window = 10 * time.Millisecond
	}
	if o.HealthyWindows <= 0 {
		o.HealthyWindows = 3
	}
	if o.RestoredWindows <= 0 {
		o.RestoredWindows = 3
	}
	if o.MaxRepairWindows <= 0 {
		o.MaxRepairWindows = 200
	}
	return o
}

// AvailabilityWindow is one measured throughput window.
type AvailabilityWindow struct {
	// Phase is "healthy", "repair" (between the crash and the repair
	// cut-over) or "restored".
	Phase string
	// Start is the window's opening instant on the cumulative timeline.
	Start time.Duration
	// Txns is the number of transactions committed in the window.
	Txns int64
	// TPS is the window's throughput in transactions per simulated
	// second.
	TPS float64
}

// AvailabilityResult is the measured timeline.
type AvailabilityResult struct {
	Windows []AvailabilityWindow
	// BaseTPS is the mean healthy-window throughput; MinTPS the worst
	// window after the crash (the availability dip); RestoredTPS the
	// mean restored-window throughput.
	BaseTPS, MinTPS, RestoredTPS float64
	// CrashAt is the cumulative simulated instant of the primary crash.
	CrashAt time.Duration
	// RepairDur is the simulated time the online repair ran and
	// RepairBytes its state-transfer payload.
	RepairDur   time.Duration
	RepairBytes int64
	// RestoredAt is the cumulative instant the cluster was back at full
	// redundancy (repair cut-over); RestoredAt - CrashAt is the
	// time-to-restored-quorum.
	RestoredAt time.Duration
}

// RunAvailability populates the workload, warms up, and measures the
// crash → failover → repair → restored timeline on the deployment. It is
// written against the FaultDB surface; on a multi-group deployment the
// crash and repair land on shard 0.
func RunAvailability(c FaultDB, w Workload, opts AvailabilityOptions) (AvailabilityResult, error) {
	opts = opts.withDefaults()
	if err := w.Populate(c.Load); err != nil {
		return AvailabilityResult{}, err
	}
	st := newStream(c.Begin, w, opts.Seed)
	one := st.one
	for i := int64(0); i < opts.Warmup; i++ {
		if err := one(); err != nil {
			return AvailabilityResult{}, fmt.Errorf("tpc: warmup txn %d: %w", i, err)
		}
	}
	c.ResetMeasurement()

	var res AvailabilityResult
	// cum stitches the cumulative timeline across the failover, which
	// re-pins the serving clock to the promoted machine.
	cum := time.Duration(0)
	last := time.Duration(0)
	window := func(phase string) error {
		startC := c.Committed()
		start := c.Elapsed()
		for c.Elapsed()-start < opts.Window {
			if err := one(); err != nil {
				// A safety level that refuses degraded service shows up
				// as an empty window, not a failed run.
				if errors.Is(err, repro.ErrSafetyUnavailable) && phase == "repair" {
					c.Settle()
					continue
				}
				return fmt.Errorf("tpc: %s window: %w", phase, err)
			}
		}
		end := c.Elapsed()
		cum += end - last
		last = end
		n := int64(c.Committed() - startC)
		res.Windows = append(res.Windows, AvailabilityWindow{
			Phase: phase,
			Start: cum - (end - start),
			Txns:  n,
			TPS:   float64(n) / (end - start).Seconds(),
		})
		return nil
	}

	for i := 0; i < opts.HealthyWindows; i++ {
		if err := window("healthy"); err != nil {
			return res, err
		}
	}

	// Crash, fail over, and start healing online.
	if err := c.CrashPrimary(); err != nil {
		return res, err
	}
	res.CrashAt = cum
	if err := c.Failover(); err != nil {
		return res, err
	}
	last = c.Elapsed() // the serving clock moved machines
	if err := c.RepairAsync(); err != nil {
		return res, err
	}

	repaired := false
	for i := 0; i < opts.MaxRepairWindows; i++ {
		if err := window("repair"); err != nil {
			return res, err
		}
		if !c.RepairProgress().Active {
			repaired = true
			break
		}
	}
	if !repaired {
		return res, fmt.Errorf("tpc: repair did not complete within %d windows", opts.MaxRepairWindows)
	}
	p := c.RepairProgress()
	res.RepairDur = p.Elapsed
	res.RepairBytes = p.BytesShipped
	res.RestoredAt = res.CrashAt + p.Elapsed

	for i := 0; i < opts.RestoredWindows; i++ {
		if err := window("restored"); err != nil {
			return res, err
		}
	}

	var healthySum, restoredSum float64
	var healthyN, restoredN int
	for _, win := range res.Windows {
		switch win.Phase {
		case "healthy":
			healthySum += win.TPS
			healthyN++
		case "restored":
			restoredSum += win.TPS
			restoredN++
		case "repair":
			if res.MinTPS == 0 || win.TPS < res.MinTPS {
				res.MinTPS = win.TPS
			}
		}
	}
	if healthyN > 0 {
		res.BaseTPS = healthySum / float64(healthyN)
	}
	if restoredN > 0 {
		res.RestoredTPS = restoredSum / float64(restoredN)
	}
	return res, nil
}
