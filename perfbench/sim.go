package main

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"time"

	"grouphash/internal/harness"
	"grouphash/internal/trace"
)

// simRun is the cost-model stage: the paper's §4.2 procedure (load to
// simLoadFactor from the RandomNum trace, then measured insert, query
// and delete phases) for group hashing on the simulated machine.
type simRun struct {
	res  harness.LatencyResult
	host time.Duration // median over the reps of the wall time
	cpu  time.Duration // median over the reps of the process's CPU time
}

// ops counts the simulated operations: the load phase plus the three
// measured phases.
func (s simRun) ops() int {
	return int(s.res.Loaded) + s.res.Insert.Count + s.res.Query.Count + s.res.Delete.Count
}

// failures counts operations the simulated table refused or missed.
func (s simRun) failures() int {
	return s.res.Insert.Failures + s.res.Query.Failures + s.res.Delete.Failures
}

// simLoadFactor is the paper's lower Fig. 5 load factor. At its higher
// one, 0.75, a 2^21-cell table fills some level-2 group on about one
// seed in five and a measured insert fails.
const simLoadFactor = 0.5

// cpuTime is the CPU time, user and system, the process has used. The
// simulator is single-threaded and CPU-bound, so the CPU time of a rep
// is its cost; its wall time also counts every moment other work on a
// shared machine held the processor.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// simulate runs the procedure, repeating a short one. The simulated
// machine is deterministic, so every rep must count exactly the same.
func simulate(cells uint64, ops int, seed int64) (simRun, error) {
	var s simRun
	var hosts, cpus []float64
	err := repeat(3, 15, 10*time.Second, func() error {
		// The serving stage's garbage is not the simulator's cost; handing
		// it back to the OS here keeps the background scavenger out of
		// the timed call.
		debug.FreeOSMemory()
		c0, err := cpuTime()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := harness.RunLatency(harness.LatencyConfig{
			Build:      harness.BuildConfig{Kind: harness.Group, TotalCells: cells, Seed: uint64(seed)},
			Trace:      trace.NewRandomNum(seed),
			LoadFactor: simLoadFactor,
			Ops:        ops,
			Seed:       seed,
		})
		hosts = append(hosts, time.Since(t0).Seconds())
		c1, err := cpuTime()
		if err != nil {
			return err
		}
		cpus = append(cpus, (c1 - c0).Seconds())
		if len(hosts) > 1 && res != s.res {
			return checkf("simulation rep %d counted differently from rep 0", len(hosts)-1)
		}
		s.res = res
		return nil
	})
	if err != nil {
		return s, err
	}
	s.host = time.Duration(median(hosts) * 1e9)
	s.cpu = time.Duration(median(cpus) * 1e9)
	if s.res.Loaded == 0 {
		return s, fmt.Errorf("simulation loaded no items into %d cells", cells)
	}
	if s.cpu <= 0 {
		return s, fmt.Errorf("simulation of %d cells used no measurable CPU time", cells)
	}
	return s, nil
}
