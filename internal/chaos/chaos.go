package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
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
	// Log is every generation's oplog configuration: its commit window
	// (the zero Config is a zero-length one) and growth step.
	Log oplog.Config
	// Workers is the concurrent load-worker count (default 3).
	Workers int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Result counts what a run's power cuts found.
type Result struct {
	// Cuts is the number of power cuts: kill+tear and the cut-* kinds.
	Cuts int
	// Torn counts the cuts that left a written but unsynced tail.
	Torn int
	// Grown counts the cuts whose fsynced prefix ended past the log's
	// first growth step (none without Log.PreallocBytes).
	Grown int
	// Full counts the ops the engine refused for lack of room
	// (StatusFull); an auto-expanding engine refuses none.
	Full int
	// Expansions sums Engine.Expansions over the generations' engines,
	// each read before its teardown: the online expansions that
	// committed a bigger table, replay's included.
	Expansions uint64
}

// Run executes the schedule. Before each event it recovers the engine
// from disk (image + oplog replay) and audits the model against the
// recovered state: zero lost acked writes, zero phantom keys, an exact
// item count, structural consistency. Then it boots a server over real
// TCP, loads it through the model, applies the event, and tears the
// generation down for the next recovery. A final recovery + audit
// closes the run; it and every odd generation's recovery follow a
// simulated crash in the middle of replay.
//
// Run installs the package-global oplog fsync hook that fsync-fault
// events and power cuts arm; do not run two schedules concurrently in
// one process.
func Run(cfg Config) (Result, error) {
	var res Result
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if len(cfg.Events) == 0 {
		return res, errors.New("chaos: empty schedule")
	}
	spec := engine.Spec{Name: cfg.Engine, Capacity: cfg.Capacity}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	img := filepath.Join(cfg.Dir, "store.pmfs")
	base := filepath.Join(cfg.Dir, "oplog")
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	pc := installPowerCut()
	defer oplog.SetTestFsyncErr(nil)
	model := NewModel(cfg.Workers)

	for gen := 0; ; gen++ {
		after := "boot"
		if gen > 0 {
			after = cfg.Events[gen-1].Kind.String()
		}
		if gen%2 == 1 || gen == len(cfg.Events) {
			if err := crashMidReplay(spec, img, base, logf); err != nil {
				return res, fmt.Errorf("gen %d: %w", gen, err)
			}
		}
		eng, lg, rec, err := engine.Restart(spec, img, base, cfg.Log)
		if err != nil {
			return res, fmt.Errorf("gen %d: recovery: %w", gen, err)
		}
		// Replay can leave an online expansion still migrating in the
		// background (its triggering insert does not wait for it), and
		// pre-flip the routed view holds fresh inserts the root view
		// does not — an honest in-memory transient that the offline
		// audit below must not read mid-flight. An empty Quiesce is the
		// engine-agnostic "wait until nothing is moving".
		eng.Quiesce(func() {})
		err = model.Audit(func(keys []layout.Key) ([]uint64, []bool, error) {
			vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
			for i, k := range keys {
				vals[i], found[i] = eng.Get(k)
			}
			return vals, found, nil
		}, eng.Len())
		if bad := eng.CheckConsistency(); err == nil && len(bad) != 0 {
			err = fmt.Errorf("recovered engine inconsistent: %v", bad)
		}
		if err != nil {
			return res, fmt.Errorf("gen %d (after %s): %w", gen, after, err)
		}
		if gen == len(cfg.Events) {
			lg.Abort()
			res.Expansions += eng.Expansions()
			res.Full = model.Full()
			logf("chaos: final audit clean (%d items after %d events, %d ops refused for lack of room, %d expansions committed); %d of %d power cuts tore a written but unsynced tail",
				eng.Len(), gen, res.Full, res.Expansions, res.Torn, res.Cuts)
			return res, nil
		}
		ev := cfg.Events[gen]
		logf("chaos: gen %d verified (items=%d, replayed=%d) → %s", gen, eng.Len(), rec.Replayed, ev)
		err = serveGeneration(cfg, eng, lg, img, ev, model, rng, pc, &res, logf)
		res.Expansions += eng.Expansions()
		if err != nil {
			return res, fmt.Errorf("gen %d (%s): %w", gen, ev, err)
		}
	}
}

// serveGeneration boots a server on the recovered engine, loads it,
// applies one event and leaves the serving stack fully torn down (the
// oplog either closed by a drain or abandoned crash-style).
func serveGeneration(cfg Config, eng engine.Engine, lg *oplog.Log, img string, ev Event,
	model *Model, rng *rand.Rand, pc *powerCut, res *Result, logf func(string, ...any)) error {

	defer pc.restore()
	srv, err := server.New(server.Config{Engine: eng, Oplog: lg, SnapshotPath: img, Logf: logf})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	var serveErr error // read once served is closed
	go func() {
		if err := srv.Serve(ln); err != nil {
			serveErr = fmt.Errorf("serve: %w", err)
		}
		close(served)
	}()
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- model.Load(ln.Addr().String(), stop, ev.Kind) }()

	time.Sleep(ev.Delay)
	cut := false
	switch ev.Kind {
	case KindKill:
		srv.Abort()
	case KindKillTear, KindCutRotated, KindCutImaged, KindCutTruncated:
		if err := snapshotSteps(eng, lg, img, ev.Kind); err != nil {
			return fmt.Errorf("snapshot before the cut: %w", err)
		}
		pc.cut()
		srv.Abort()
		cut = true
	case KindDrain:
		if err := srv.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	case KindSnapshot:
		if err := srv.SnapshotNow(); err != nil {
			return fmt.Errorf("on-demand snapshot: %w", err)
		}
		time.Sleep(2 * time.Millisecond) // load keeps running past the cut
		srv.Abort()
	case KindFsyncFault:
		pc.armed.Store(true)
		// The next group commit fails; the server must refuse the
		// affected acks and self-drain (closing the oplog). If the
		// load already dried up (no appends → no fsync → no trigger),
		// fall back to an abort so the run never wedges.
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			srv.Abort()
		}
	case KindExpand:
		// Only an engine that grows instead of refusing an insert
		// (oplog.KeyIndependent) can complete an expansion to wait for.
		if ki, ok := eng.(oplog.KeyIndependent); ok && ki.KeyIndependent() {
			before := eng.Expansions()
			deadline := time.Now().Add(500 * time.Millisecond)
			for eng.Expansions() == before && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if eng.Expansions() > before {
				logf("chaos: expansion %d completed under load", eng.Expansions())
			}
		}
		srv.Abort()
	}
	<-served
	close(stop)
	werr := errors.Join(serveErr, <-loadErr)
	if !cut {
		// Crash-style abandon; a no-op where the drain already closed
		// the log (Abort and Close share the closed guard).
		lg.Abort()
		return werr
	}
	// The abort left the oplog exactly as the power cut found it; now
	// take the power failure's cut of the active segment.
	synced, written, err := tearTail(lg, rng, logf)
	if err != nil {
		return err
	}
	res.Cuts++
	if written > synced {
		res.Torn++
	}
	if step := cfg.Log.PreallocBytes; step > 0 && synced > step {
		res.Grown++
	}
	return werr
}

// snapshotSteps takes the server's snapshot protocol (server.snapshot)
// as far as the power-cut kind k names, while the load runs: the mark
// is read and the log rotated inside SnapshotWriterAt's all-stripes cut
// (KindCutRotated: no image is written), the image is written
// (KindCutImaged: the log is not truncated), and the segments it covers
// are deleted (KindCutTruncated). KindKillTear takes none.
func snapshotSteps(eng engine.Engine, lg *oplog.Log, img string, k Kind) error {
	if k == KindKillTear {
		return nil
	}
	var mark uint64
	write, err := eng.SnapshotWriterAt(func() (uint64, error) {
		mark = lg.LastLSN()
		return mark, lg.Rotate()
	})
	if err != nil || k == KindCutRotated {
		return err
	}
	if err := write(img); err != nil || k == KindCutImaged {
		return err
	}
	return lg.TruncateThrough(mark)
}

// powerCut is the run's one fsync fault, installed before any log
// opens: replacing the hook while a committer runs would race. Armed,
// it fails every sync and reports the first failure on fired.
type powerCut struct {
	armed atomic.Bool
	fired chan struct{} // one token once an armed sync failed
}

var errPowerCut = errors.New("chaos: injected fsync fault")

func installPowerCut() *powerCut {
	pc := &powerCut{fired: make(chan struct{}, 1)}
	oplog.SetTestFsyncErr(func() error {
		if !pc.armed.Load() {
			return nil
		}
		select {
		case pc.fired <- struct{}{}:
		default:
		}
		return errPowerCut
	})
	return pc
}

// cut cuts power the way a disk loses it: armed at the crash instant,
// the fault fails the commit in flight (or the next) after it wrote its
// records — written, never durable, never acked: the tail tearTail cuts
// into. It waits for that commit to fail, or a second when no write is
// left to commit.
func (pc *powerCut) cut() {
	pc.armed.Store(true)
	select {
	case <-pc.fired:
	case <-time.After(time.Second):
	}
}

// restore disarms the fault for the next generation's log.
func (pc *powerCut) restore() {
	pc.armed.Store(false)
	select {
	case <-pc.fired:
	default:
	}
}

// crashMidReplay simulates a crash in the middle of recovery: half the
// log past the image's mark is replayed into a throwaway engine whose
// applier then refuses. Replay writes nothing, so the real recovery
// that follows must be unaffected.
func crashMidReplay(spec engine.Spec, img, base string, logf func(string, ...any)) error {
	eng, _, rec, err := engine.Restart(spec, img, "", oplog.Config{})
	if err != nil {
		return fmt.Errorf("loading image: %w", err)
	}
	_, total, err := oplog.Scan(base, rec.Mark, func(*oplog.Record) error { return nil })
	if err != nil || total < 2 {
		return err
	}
	if _, _, err := oplog.Replay(&haltingApplier{eng, total / 2}, base, rec.Mark); !errors.Is(err, errMidReplay) {
		return fmt.Errorf("partial replay: %v", err)
	}
	logf("chaos: replay crashed after %d of %d records", total/2, total)
	return nil
}

var errMidReplay = errors.New("chaos: simulated crash mid-replay")

// haltingApplier applies the first left records of a replay to its
// engine, then refuses every later one: a crash part-way through.
type haltingApplier struct {
	engine.Engine
	left int
}

// ApplyBatch applies ops while records are left and refuses the rest.
func (a *haltingApplier) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, sc *core.BatchScratch, committed func(applied []int)) {
	n := min(a.left, len(ops))
	a.Engine.ApplyBatch(ops[:n], out[:n], sc, committed)
	for i := n; i < len(ops); i++ {
		out[i] = core.BatchResult{Err: errMidReplay}
	}
	a.left -= n
}

// tearTail abandons the log the way a power failure would: the active
// segment keeps its fsynced prefix, loses a random amount of its
// unsynced tail, and sometimes gains trailing garbage. It returns the
// segment's fsynced and written lengths.
func tearTail(lg *oplog.Log, rng *rand.Rand, logf func(string, ...any)) (synced, written int64, err error) {
	synced, written = lg.SyncedSize(), lg.WrittenSize()
	path := lg.ActivePath()
	lg.Abort()
	logf("chaos: tear: active segment %d bytes written, %d fsynced", written, synced)
	keep := synced
	if written > synced {
		keep = synced + rng.Int63n(written-synced+1)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return synced, written, err
	}
	defer f.Close()
	if err := f.Truncate(keep); err != nil {
		return synced, written, err
	}
	if rng.Intn(2) == 0 {
		garbage := make([]byte, 1+rng.Intn(64))
		rng.Read(garbage)
		_, err = f.WriteAt(garbage, keep)
	}
	return synced, written, err
}
