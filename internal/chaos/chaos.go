package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/client"
	"grouphash/internal/engine"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
)

// Config parameterises one chaos schedule run.
type Config struct {
	// Engine is the engine spec name ("grouphash", "pfht-l", ...).
	Engine string
	// Capacity is the engine's target capacity. Give the flagship a
	// small one so the insert load forces real online expansions.
	Capacity uint64
	// Seed derives the schedule and every random choice in the run.
	Seed int64
	// Events is the schedule (NewSchedule(Seed, n) for the canonical
	// derivation).
	Events []Event
	// Dir is the scratch directory for the image and oplog segments.
	Dir string
	// Workers is the concurrent load-worker count (default 3).
	Workers int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Run executes the schedule: for each event it recovers the engine
// from disk (image + oplog replay), audits the map oracle against the
// recovered state — zero lost acked writes, zero phantom keys, an
// exact item count, structural consistency — then boots a server over
// real TCP, hammers it with modelled load, applies the event, and
// tears the generation down for the next recovery. A final recovery +
// audit closes the run.
//
// Run installs the package-global oplog fsync hook for KindFsyncFault
// and KindKillTear events; do not run two schedules concurrently in
// one process.
func Run(cfg Config) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if len(cfg.Events) == 0 {
		return errors.New("chaos: empty schedule")
	}
	spec := engine.Spec{Name: cfg.Engine, Capacity: cfg.Capacity}
	if _, err := engine.New(spec); err != nil {
		return err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	img := filepath.Join(cfg.Dir, "store.pmfs")
	base := filepath.Join(cfg.Dir, "oplog")
	lcfg := oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))

	// One sticky-fault hook for the whole run, armed per event.
	var fsyncFault atomic.Bool
	faultErr := errors.New("chaos: injected fsync fault")
	oplog.SetTestFsyncErr(func() error {
		if fsyncFault.Load() {
			return faultErr
		}
		return nil
	})
	defer oplog.SetTestFsyncErr(nil)

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = newWorker(i)
	}
	filler := newWorker(cfg.Workers + 100) // expansion flooder, own key range
	filler.insertOnly = true
	model := append(append([]*worker{}, workers...), filler)

	for gen, ev := range cfg.Events {
		eng, lg, rec, err := engine.Restart(spec, img, base, lcfg)
		if err != nil {
			return fmt.Errorf("gen %d: recovery: %w", gen, err)
		}
		prev := "boot"
		if gen > 0 {
			prev = cfg.Events[gen-1].Kind.String()
		}
		// Replay can leave an online expansion still migrating in the
		// background (its triggering insert does not wait for it), and
		// pre-flip the routed view holds fresh inserts the root view
		// does not — an honest in-memory transient that the offline
		// audit below must not read mid-flight. An empty Quiesce is the
		// engine-agnostic "wait until nothing is moving".
		eng.Quiesce(func() {})
		if err := verify(eng, model, gen, prev); err != nil {
			return err
		}
		logf("chaos: gen %d verified (items=%d, replayed=%d) → %s", gen, eng.Len(), rec.Replayed, ev)

		if err := serveGeneration(cfg, eng, lg, img, ev, workers, filler, rng, &fsyncFault, logf); err != nil {
			return fmt.Errorf("gen %d (%s): %w", gen, ev, err)
		}
	}

	eng, lg, _, err := engine.Restart(spec, img, base, lcfg)
	if err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	defer lg.Abort()
	last := cfg.Events[len(cfg.Events)-1].Kind.String()
	eng.Quiesce(func() {}) // same expansion settling as the per-event audit
	if err := verify(eng, model, len(cfg.Events), last); err != nil {
		return err
	}
	logf("chaos: final audit clean (%d items after %d events)", eng.Len(), len(cfg.Events))
	return nil
}

// serveGeneration boots a server on the recovered engine, loads it,
// applies one event and leaves the serving stack fully torn down (the
// oplog either closed by a drain or abandoned crash-style).
func serveGeneration(cfg Config, eng engine.Engine, lg *oplog.Log, img string, ev Event,
	workers []*worker, filler *worker, rng *rand.Rand, fsyncFault *atomic.Bool,
	logf func(string, ...any)) error {

	srv, err := server.New(server.Config{Engine: eng, Oplog: lg, SnapshotPath: img, Logf: logf})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	load := append([]*worker{}, workers...)
	if ev.Kind == KindExpand {
		load = append(load, filler)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werrMu sync.Mutex
	var werr error
	for _, w := range load {
		maxBatches := 120
		if w.insertOnly {
			maxBatches = 600
		}
		wg.Add(1)
		go func(w *worker, maxBatches int) {
			defer wg.Done()
			c, err := client.Dial(addr, time.Second)
			if err != nil {
				return // the event beat the dial; no ops, no model impact
			}
			defer c.Close()
			if err := w.run(c, stop, maxBatches); err != nil {
				werrMu.Lock()
				if werr == nil {
					werr = err
				}
				werrMu.Unlock()
			}
		}(w, maxBatches)
	}

	time.Sleep(ev.Delay)
	switch ev.Kind {
	case KindKill, KindKillTear:
		// kill+tear cuts power: the armed fault fails the commit in
		// flight (or the next) after it wrote its records — written,
		// never durable, never acked: the tail tearTail cuts into.
		fsyncFault.Store(ev.Kind == KindKillTear)
		srv.Abort()
		<-serveDone
	case KindDrain:
		if err := srv.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		<-serveDone
	case KindSnapshot:
		if err := srv.SnapshotNow(); err != nil {
			return fmt.Errorf("on-demand snapshot: %w", err)
		}
		time.Sleep(2 * time.Millisecond) // load keeps running past the cut
		srv.Abort()
		<-serveDone
	case KindFsyncFault:
		fsyncFault.Store(true)
		// The next group commit fails; the server must refuse the
		// affected acks and self-drain (closing the oplog). If the
		// load already dried up (no appends → no fsync → no trigger),
		// fall back to an abort so the run never wedges.
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			srv.Abort()
			<-serveDone
		}
		fsyncFault.Store(false)
	case KindExpand:
		before := eng.Expansions()
		deadline := time.Now().Add(500 * time.Millisecond)
		for eng.Expansions() == before && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if eng.Expansions() > before {
			logf("chaos: expansion %d completed under load", eng.Expansions())
		}
		srv.Abort()
		<-serveDone
	}
	close(stop)
	wg.Wait()

	if ev.Kind == KindKillTear {
		// The abort left the oplog exactly as the crash found it; now
		// take the power failure's cut of the active segment.
		err := tearTail(lg, rng, logf)
		fsyncFault.Store(false)
		if err != nil {
			return err
		}
	} else {
		// Crash-style abandon; a no-op where the drain already closed
		// the log (Abort and Close share the closed guard).
		lg.Abort()
	}
	werrMu.Lock()
	defer werrMu.Unlock()
	return werr
}

// tearTail abandons the log the way a power failure would: the active
// segment keeps its fsynced prefix, loses a random amount of its
// unsynced tail, and sometimes gains trailing garbage.
func tearTail(lg *oplog.Log, rng *rand.Rand, logf func(string, ...any)) error {
	synced, written := lg.SyncedSize(), lg.WrittenSize()
	path := lg.ActivePath()
	lg.Abort()
	logf("chaos: tear: active segment %d bytes written, %d fsynced", written, synced)
	keep := synced
	if written > synced {
		keep = synced + rng.Int63n(written-synced+1)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(keep); err != nil {
		return err
	}
	if rng.Intn(2) == 0 {
		garbage := make([]byte, 1+rng.Intn(64))
		rng.Read(garbage)
		if _, err := f.WriteAt(garbage, keep); err != nil {
			return err
		}
	}
	return nil
}
