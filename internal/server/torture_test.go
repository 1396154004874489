package server

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouphash/internal/client"
	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

// TestCrashTorture is the acceptance test for the durability contract:
// across many kill/restart cycles, every write acked before the crash
// is present EXACTLY once after recovery, no refused or unacked write
// is half-applied, and replay survives a crash during replay itself.
//
// Each cycle recovers through engine.Restart (snapshot + oplog replay,
// the one restart sequence production uses), verifies the model,
// serves real pipelined client load, then crashes at one of the leg's
// kill points:
//
//	stage 0  under pure load (log tail mid-group-commit)
//	stage 1  mid-snapshot: log rotated, image never written
//	stage 2  mid-snapshot: image durable, log not yet truncated
//	stage 3  right after a completed snapshot + truncation
//
// The zero-window leg runs stages 1 and 2 only: ghchaos's zero-window
// row in make torture serves with the identical oplog config and
// SIGKILLs under load, after 25 ms periodic snapshots have completed
// and truncated the log, so it reaches stages 0 and 3. No other gate
// runs the windowed legs' 4 KiB growth steps, so they keep all four.
//
// Every odd cycle additionally simulates a crash in the middle of
// replay (half the log applied to a throwaway engine whose applier
// then refuses) before recovering for real. Every crash is a power
// cut: an fsync fault armed at the crash instant fails the next group
// commit after it has written its records, so they are written, never
// durable and never acked — then the active segment's unsynced tail is
// torn at a random point and garbage is appended. Each leg fails unless
// at least one crash had such a tail to tear.
//
// The client-visible model tracks each key as acked-present,
// acked-absent, or tainted (its batch died unacked: the op may or may
// not have been applied, but never twice and never with a value other
// than the one sent). Exactly-once is proven by Len(): every present
// key is accounted for individually, so a double-applied insert would
// make Len exceed the count.
//
// The whole gauntlet runs once per oplog commit window: a zero-length
// window (the zero Config, which fsyncs as soon as a record is
// staged) and two (SyncEvery, SyncBytes) windows — the durability
// contract must be identical however long the committer waits. The
// windowed legs grow segments in 4 KiB preallocation steps, small
// enough that every generation grows its segment several times, so
// kills and torn tails land past the first step, in regions a growth
// commit zero-filled; the test fails if none does.
func TestCrashTorture(t *testing.T) {
	// One fsync hook for every leg, installed before any log opens:
	// replacing it while a committer runs would race. Armed, it fails
	// the next sync and reports that it did.
	pc := &powerCut{fired: make(chan struct{}, 1)}
	oplog.SetTestFsyncErr(func() error {
		if !pc.armed.Load() {
			return nil
		}
		select {
		case pc.fired <- struct{}{}:
		default:
		}
		return errors.New("torture: power cut")
	})
	t.Cleanup(func() { oplog.SetTestFsyncErr(nil) })
	for _, tc := range []struct {
		name   string
		cycles int
		cfg    oplog.Config
		stages []int
	}{
		{"zero-window", 24, oplog.Config{}, []int{1, 2}},
		{"adaptive-100us-64KiB", 16, oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 10}, []int{0, 1, 2, 3}},
		{"adaptive-1ms-256KiB", 16, oplog.Config{SyncEvery: time.Millisecond, SyncBytes: 256 << 10, PreallocBytes: 4 << 10}, []int{0, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) { crashTorture(t, tc.cycles, tc.cfg, tc.stages, pc) })
	}
}

// powerCut is the torture's fsync fault: armed at the crash instant,
// it fails the next sync, so that commit's records reach the segment
// but are never durable and never acked.
type powerCut struct {
	armed atomic.Bool
	fired chan struct{} // one token once an armed sync failed
}

// cut arms the fault and waits for the next commit to hit it; with no
// write left to commit, it gives up after a second.
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

func crashTorture(t *testing.T, cycles int, lcfg oplog.Config, stages []int, pc *powerCut) {
	dir := t.TempDir()
	img := filepath.Join(dir, "store.pmfs")
	base := filepath.Join(dir, "oplog")
	rng := rand.New(rand.NewSource(1))

	ws := make([]*tortureWorker, 3)
	for i := range ws {
		ws[i] = newTortureWorker(uint64(i))
	}
	grownCrashes := 0 // crashes whose fsynced prefix ended past the first growth step
	tornCrashes := 0  // crashes that left a written but unsynced tail to tear

	for cycle := 0; cycle < cycles; cycle++ {
		st, lg := recoverStore(t, img, base, cycle%2 == 1, lcfg)
		verifyModel(t, st, ws, cycle)

		s, err := New(Config{Engine: st, SnapshotPath: img, Oplog: lg, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(ln) }()

		clients := make([]*client.Client, len(ws))
		for i := range ws {
			if clients[i], err = client.Dial(ln.Addr().String(), time.Second); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(w *tortureWorker, c *client.Client) {
				defer wg.Done()
				w.run(t, c)
			}(w, clients[i])
		}
		time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)

		// Replicate server.snapshot's durable steps up to the cycle's
		// crash point, while the writers are still hammering — then
		// pull the plug. The mark is read and the log rotated inside
		// SnapshotWriterAt's all-stripes cut, exactly as the server
		// does; stage 1 captures but never writes the image, so its
		// on-disk state is "rotated, no image".
		if stage := stages[cycle%len(stages)]; stage >= 1 {
			var mark uint64
			write, err := st.SnapshotWriterAt(func() (uint64, error) {
				mark = lg.LastLSN()
				return mark, lg.Rotate()
			})
			if err != nil {
				t.Fatal(err)
			}
			if stage >= 2 {
				if err := write(img); err != nil {
					t.Fatal(err)
				}
			}
			if stage >= 3 {
				if err := lg.TruncateThrough(mark); err != nil {
					t.Fatal(err)
				}
			}
		}
		pc.cut()
		s.Abort()
		if err := <-serveDone; err != nil {
			t.Fatalf("Serve returned %v", err)
		}
		wg.Wait()
		for _, c := range clients {
			c.Close()
		}
		synced, written := tearTail(t, lg, rng)
		pc.restore()
		if written > synced {
			tornCrashes++
		}
		if lcfg.PreallocBytes > 0 && synced > lcfg.PreallocBytes {
			grownCrashes++
		}
		if t.Failed() {
			t.Fatalf("model violated in cycle %d", cycle)
		}
	}

	st, lg := recoverStore(t, img, base, true, lcfg)
	verifyModel(t, st, ws, cycles)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d crashes cut a written but unsynced tail", tornCrashes, cycles)
	if tornCrashes == 0 {
		t.Fatalf("no crash left an unsynced tail: every tear cut only what was already durable")
	}
	if lcfg.PreallocBytes > 0 {
		t.Logf("%d of %d crashes landed past the first %d-byte growth step", grownCrashes, cycles, lcfg.PreallocBytes)
		if grownCrashes == 0 {
			t.Fatalf("no crash landed in a grown segment region: preallocation step %d is too large for this load", lcfg.PreallocBytes)
		}
	}
}

// tortureSpec is the engine the torture recovers: a flagship small
// enough that the load forces online expansions.
var tortureSpec = engine.Spec{Name: "grouphash", Capacity: 1 << 12}

// recoverStore recovers through engine.Restart — load the latest image
// if one exists, replay the oplog past its mark, open the log for
// appending — and settles any expansion the replay left migrating with
// an empty Quiesce. With doomed set, it first simulates a crash during
// replay: half the log is replayed into a throwaway engine whose
// applier then refuses — replay writes nothing, so the real recovery
// that follows must be unaffected.
func recoverStore(t *testing.T, img, base string, doomed bool, lcfg oplog.Config) (engine.Engine, *oplog.Log) {
	t.Helper()
	if doomed {
		doomedEng, _, rec, err := engine.Restart(tortureSpec, img, "", lcfg)
		if err != nil {
			t.Fatalf("loading image: %v", err)
		}
		_, total, err := oplog.Scan(base, rec.Mark, func(oplog.Record) error { return nil })
		if err != nil {
			t.Fatalf("counting scan: %v", err)
		}
		if total > 1 {
			if _, _, err := oplog.Replay(&haltingApplier{doomedEng, total / 2}, base, rec.Mark); !errors.Is(err, errMidReplay) {
				t.Fatalf("partial replay: %v", err)
			}
		}
	}
	st, lg, rec, err := engine.Restart(tortureSpec, img, base, lcfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st.Quiesce(func() {})
	t.Logf("recovered: mark=%d replayed=%d items=%d", rec.Mark, rec.Replayed, st.Len())
	return st, lg
}

var errMidReplay = errors.New("simulated crash mid-replay")

// haltingApplier applies the first left records of a replay to its
// engine, then refuses every later one: a crash part-way through.
type haltingApplier struct {
	engine.Engine
	left int
}

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
// fsynced and written lengths of the segment.
func tearTail(t *testing.T, lg *oplog.Log, rng *rand.Rand) (synced, written int64) {
	t.Helper()
	synced, written = lg.SyncedSize(), lg.WrittenSize()
	path := lg.ActivePath()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crash: active segment %d bytes written, %d fsynced, file %d bytes", written, synced, fi.Size())
	lg.Abort()
	keep := synced
	if written > synced {
		keep = synced + rng.Int63n(written-synced+1)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		garbage := make([]byte, 1+rng.Intn(64))
		rng.Read(garbage)
		if _, err := f.WriteAt(garbage, keep); err != nil {
			t.Fatal(err)
		}
	}
	return synced, written
}

// Key lifecycle states in the torture model.
const (
	ackedPresent = iota // server said OK; must be present with the value
	ackedAbsent         // deleted OK, refused, or observed lost while unacked
	taintInsert         // insert's batch died unacked: absent, or present once
	taintDelete         // delete's batch died unacked: old value, or absent
)

type kstate struct {
	val   uint64
	state int
}

// tortureWorker owns a disjoint key range and mirrors, on the client
// side, what the server has promised about every key it touched. It
// survives across kill cycles; only its connection dies.
type tortureWorker struct {
	base   uint64 // key-range base; base itself is the overwrite slot
	seq    uint64 // next insert suffix
	delSeq uint64 // next delete suffix (always trails seq)
	opn    uint64 // monotone op counter; doubles as the slot value
	keys   map[uint64]*kstate

	// The overwrite slot exercises Put: slotAcked is the last value
	// the server acked; a tainted batch widens the allowed set to
	// slotCands until the next recovery pins what survived.
	slotAcked uint64
	slotHas   bool
	slotTaint bool
	slotCands []uint64
}

func newTortureWorker(w uint64) *tortureWorker {
	return &tortureWorker{
		base:   (w + 1) << 40,
		seq:    1,
		delSeq: 1,
		keys:   make(map[uint64]*kstate),
	}
}

type planOp struct {
	kind byte // 'i' insert, 'd' delete, 'p' put-overwrite
	key  uint64
	val  uint64
}

// run hammers pipelined batches until the connection dies under it
// (the crash) or the per-cycle cap is reached, updating the model from
// each batch's acks. A failed Do yields no responses, so every op in
// that batch becomes tainted.
func (w *tortureWorker) run(t *testing.T, c *client.Client) {
	const batch = 16
	const maxBatches = 200
	for b := 0; b < maxBatches; b++ {
		plan := make([]planOp, 0, batch)
		reqs := make([]wire.Request, 0, batch)
		for j := 0; j < batch; j++ {
			w.opn++
			if w.opn%5 == 0 {
				plan = append(plan, planOp{'p', w.base, w.opn})
				reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: w.base}, Value: w.opn})
				continue
			}
			if w.opn%7 == 0 {
				// Delete the oldest undeleted key — but only once its
				// insert's fate is recorded (keys planned in this very
				// batch are not in the model yet).
				if ks, ok := w.keys[w.base+w.delSeq]; ok {
					k := w.base + w.delSeq
					w.delSeq++
					plan = append(plan, planOp{'d', k, ks.val})
					reqs = append(reqs, wire.Request{Op: wire.OpDelete, Key: layout.Key{Lo: k}})
					continue
				}
			}
			k := w.base + w.seq
			w.seq++
			v := k ^ 0x5aa5
			plan = append(plan, planOp{'i', k, v})
			reqs = append(reqs, wire.Request{Op: wire.OpInsert, Key: layout.Key{Lo: k}, Value: v})
		}
		resps, err := c.Do(reqs)
		if err != nil {
			for _, op := range plan {
				switch op.kind {
				case 'i':
					w.keys[op.key] = &kstate{op.val, taintInsert}
				case 'd':
					w.keys[op.key].state = taintDelete
				case 'p':
					w.slotTaint = true
					w.slotCands = append(w.slotCands, op.val)
				}
			}
			return
		}
		for i, r := range resps {
			op := plan[i]
			switch op.kind {
			case 'i':
				switch r.Status {
				case wire.StatusOK:
					w.keys[op.key] = &kstate{op.val, ackedPresent}
				case wire.StatusDraining:
					w.keys[op.key] = &kstate{op.val, ackedAbsent}
				default:
					t.Errorf("insert %#x: status %d", op.key, r.Status)
				}
			case 'd':
				prior := w.keys[op.key]
				switch r.Status {
				case wire.StatusOK:
					prior.state = ackedAbsent
				case wire.StatusNotFound:
					if prior.state == ackedPresent {
						t.Errorf("delete %#x: NotFound for an acked-present key", op.key)
					}
					prior.state = ackedAbsent
				case wire.StatusDraining:
					// refused: key keeps its prior state
				default:
					t.Errorf("delete %#x: status %d", op.key, r.Status)
				}
			case 'p':
				switch r.Status {
				case wire.StatusOK:
					w.slotAcked, w.slotHas = op.val, true
					w.slotTaint, w.slotCands = false, nil
				case wire.StatusDraining:
					// refused: slot unchanged
				default:
					t.Errorf("put slot: status %d", r.Status)
				}
			}
		}
	}
}

// verifyModel checks a freshly recovered store against every worker's
// model and resolves taints to what actually survived — once observed
// after recovery, a key's fate is durable and feeds the next cycle's
// expectations.
func verifyModel(t *testing.T, st engine.Engine, ws []*tortureWorker, cycle int) {
	t.Helper()
	var expected uint64
	for _, w := range ws {
		for k, ks := range w.keys {
			v, ok := st.Get(layout.Key{Lo: k})
			switch ks.state {
			case ackedPresent:
				if !ok || v != ks.val {
					t.Fatalf("cycle %d: ACKED WRITE LOST: key %#x = (%d, %v), want (%d, true)", cycle, k, v, ok, ks.val)
				}
				expected++
			case ackedAbsent:
				if ok {
					t.Fatalf("cycle %d: key %#x was deleted/refused, resurrected with %d", cycle, k, v)
				}
			case taintInsert, taintDelete:
				if ok {
					if v != ks.val {
						t.Fatalf("cycle %d: tainted key %#x has impossible value %d (want %d)", cycle, k, v, ks.val)
					}
					ks.state = ackedPresent
					expected++
				} else {
					ks.state = ackedAbsent
				}
			}
		}
		v, ok := st.Get(layout.Key{Lo: w.base})
		switch {
		case w.slotTaint:
			if ok {
				allowed := w.slotHas && v == w.slotAcked
				for _, cand := range w.slotCands {
					allowed = allowed || v == cand
				}
				if !allowed {
					t.Fatalf("cycle %d: slot %#x = %d, not among acked %d or in-flight %v", cycle, w.base, v, w.slotAcked, w.slotCands)
				}
				w.slotAcked, w.slotHas = v, true
				expected++
			} else if w.slotHas {
				t.Fatalf("cycle %d: ACKED WRITE LOST: slot %#x (last acked %d) vanished", cycle, w.base, w.slotAcked)
			}
			w.slotTaint, w.slotCands = false, nil
		case w.slotHas:
			if !ok || v != w.slotAcked {
				t.Fatalf("cycle %d: ACKED WRITE LOST: slot %#x = (%d, %v), want (%d, true)", cycle, w.base, v, ok, w.slotAcked)
			}
			expected++
		default:
			if ok {
				t.Fatalf("cycle %d: slot %#x never acked yet present with %d", cycle, w.base, v)
			}
		}
	}
	// Every present key was counted once above, so any duplicate from a
	// double-applied replay shows up as Len > expected.
	if got := st.Len(); got != expected {
		t.Fatalf("cycle %d: Len = %d, want %d distinct present keys — replay applied something twice", cycle, got, expected)
	}
	if bad := st.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("cycle %d: recovered store inconsistent: %v", cycle, bad)
	}
}
