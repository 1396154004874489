package grouphash

import (
	"grouphash/internal/memsim"
	"grouphash/internal/nvm"
	"grouphash/internal/pmfs"
)

// SimOptions configures a simulated-NVM machine (see NewSimulated).
type SimOptions struct {
	// Seed drives crash injection.
	Seed int64
	// WriteLatencyNs overrides the extra NVM write latency charged per
	// flushed cacheline. 0 means the paper's 300 ns.
	WriteLatencyNs float64
}

// Sim couples a Store with the simulated machine it runs on, exposing
// the crash/recovery and measurement tooling of the reproduction.
type Sim struct {
	*Store
	mem *memsim.Memory
}

// Counters is the simulated machine's cumulative event counters.
type Counters = memsim.Counters

// CrashOutcome describes what a simulated power failure did.
type CrashOutcome = nvm.CrashOutcome

// NewSimulated creates a store over a freshly built simulated NVM
// machine: the paper's cache geometry (Table 2) and latency model
// (300 ns extra write latency after clflush).
func NewSimulated(opts Options, sim SimOptions) (*Sim, error) {
	if opts.Capacity == 0 {
		opts.Capacity = 1 << 16
	}
	if opts.KeyBytes == 0 {
		opts.KeyBytes = 8
	}
	lat := memsim.DefaultLatency()
	if sim.WriteLatencyNs != 0 {
		lat.NVMWriteExtra = sim.WriteLatencyNs
	}
	mem := memsim.New(memsim.Config{
		Size:    opts.Capacity*32*4 + (1 << 20),
		Seed:    sim.Seed,
		Latency: &lat,
	})
	opts.Memory = mem
	st, err := New(opts)
	if err != nil {
		return nil, err
	}
	return &Sim{Store: st, mem: mem}, nil
}

// Counters snapshots the machine's cumulative counters; subtract two
// snapshots (Counters.Sub) for per-phase costs.
func (s *Sim) Counters() Counters { return s.mem.Counters() }

// ClockNs returns the simulated time in nanoseconds.
func (s *Sim) ClockNs() float64 { return s.mem.Clock() }

// Crash simulates a power failure: CPU caches are lost and each
// un-persisted dirty word independently survives with probability
// survivalProb. The store afterwards holds a legal post-failure NVM
// image; run Recover to restore consistency.
func (s *Sim) Crash(survivalProb float64) CrashOutcome {
	return s.mem.Crash(survivalProb)
}

// ScheduleCrash arms a power failure at an exact future memory event
// (counted from the machine's cumulative access counter, see
// Counters().Accesses). Unlike Crash, this lands INSIDE whatever
// operation is running at that moment: the legal post-failure image is
// captured there, the operation finishes unharmed, and CompleteCrash
// swaps the captured image in. Use it to exercise mid-operation crash
// points.
func (s *Sim) ScheduleCrash(afterAccesses uint64, survivalProb float64) {
	s.mem.ScheduleShadowCrash(afterAccesses, survivalProb)
}

// CompleteCrash adopts a crash scheduled with ScheduleCrash, reporting
// whether the trigger had fired. Run Recover afterwards.
func (s *Sim) CompleteCrash() bool { return s.mem.AdoptShadowCrash() }

// LoadImage rebuilds a simulated store from an image file written by
// Snapshot (the PMFS-file analogue; see internal/pmfs), which cleanly
// shuts the simulated machine down before it copies the region. The
// returned store has already been reopened from its persistent root;
// run Recover if the image could predate a crash (images written by
// Snapshot are always clean). The reopened store is sequential.
func LoadImage(path string, sim SimOptions) (*Sim, error) {
	lat := memsim.DefaultLatency()
	if sim.WriteLatencyNs != 0 {
		lat.NVMWriteExtra = sim.WriteLatencyNs
	}
	mem, root, err := pmfs.Load(path, memsim.Config{Seed: sim.Seed, Latency: &lat})
	if err != nil {
		return nil, err
	}
	st, err := Open(mem, root, false)
	if err != nil {
		return nil, err
	}
	return &Sim{Store: st, mem: mem}, nil
}
