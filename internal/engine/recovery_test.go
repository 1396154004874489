package engine

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/pmfs"
)

// writeLog logs ops at base as LSNs 1..len(ops), durably.
func writeLog(t *testing.T, base string, ops []core.BatchOp) {
	t.Helper()
	l, err := oplog.OpenConfig(base, 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]oplog.Record, len(ops))
	for i, op := range ops {
		recs[i] = oplog.Record{BatchOp: op}
	}
	if err := l.WaitDurable(l.AppendBatch(recs) + uint64(len(recs)) - 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceReplay replays one log into every engine and checks
// the result against the same ops applied live, one at a time. Eight
// hot keys take interleaved puts, inserts and deletes, so same-key
// sequences cross the 256-record batch boundaries; inserts go only to
// absent keys, so no key holds duplicates and every Get has a single
// answer. Fresh-key inserts between them grow the flagship, started
// at a small capacity, through online expansions mid-replay.
func TestConformanceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ops []core.BatchOp
	present := map[uint64]bool{}
	fresh := uint64(1000)
	for len(ops) < 640 {
		i := uint64(1 + rng.Intn(8))
		op := core.BatchOp{Key: key(i), Value: rng.Uint64()}
		switch r := rng.Intn(8); {
		case r < 4:
			fresh++
			op = core.BatchOp{Kind: core.BatchInsert, Key: key(fresh), Value: fresh}
		case r == 4:
			op.Kind = core.BatchPut
			present[i] = true
		case r == 5 && !present[i]:
			op.Kind = core.BatchInsert
			present[i] = true
		default: // sometimes of an absent key, which replay must tolerate
			op.Kind = core.BatchDelete
			present[i] = false
		}
		ops = append(ops, op)
	}
	base := filepath.Join(t.TempDir(), "oplog")
	writeLog(t, base, ops)
	bad := filepath.Join(t.TempDir(), "oplog")
	writeLog(t, bad, []core.BatchOp{
		{Kind: core.BatchPut, Key: key(1), Value: 1},
		{Kind: core.BatchInsert, Key: key(2), Value: 2},
		{Kind: core.BatchPut, Key: layout.Key{}, Value: 3},
	})

	for _, spec := range conformanceSpecs() {
		if spec.Name == "grouphash" {
			spec.Capacity = 64
		}
		t.Run(spec.Name, func(t *testing.T) {
			newEngine := func() Engine {
				e, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			live := newEngine()
			for _, op := range ops {
				if r := apply(live, op.Kind, op.Key, op.Value); r.Err != nil {
					t.Fatalf("live %+v: %v", op, r.Err)
				}
			}
			live.Quiesce(func() {})
			same := func(e Engine, what string) {
				t.Helper()
				for i := uint64(1); i <= 1000+uint64(len(ops)); i++ {
					wv, wok := live.Get(key(i))
					if v, ok := e.Get(key(i)); ok != wok || v != wv {
						t.Fatalf("%s: Get(%d) = (%d, %t), live (%d, %t)", what, i, v, ok, wv, wok)
					}
				}
				if e.Len() != live.Len() {
					t.Fatalf("%s: Len = %d, live %d", what, e.Len(), live.Len())
				}
				requireClean(t, e)
			}

			e := newEngine()
			applied, next, err := oplog.Replay(e, base, 0)
			if err != nil || applied != len(ops) || next != uint64(len(ops))+1 {
				t.Fatalf("Replay = (%d, %d, %v), want (%d, %d, nil)", applied, next, err, len(ops), len(ops)+1)
			}
			e.Quiesce(func() {})
			same(e, "replayed")
			if spec.Name == "grouphash" && e.Expansions() == 0 {
				t.Fatal("no online expansion ran during the replay")
			}

			// Records at or below after are skipped: replaying past 300
			// onto an engine that applied the first 300 live yields the
			// same state. Replaying any of them again would re-insert.
			part := newEngine()
			for _, op := range ops[:300] {
				apply(part, op.Kind, op.Key, op.Value)
			}
			if applied, _, err := oplog.Replay(part, base, 300); err != nil || applied != len(ops)-300 {
				t.Fatalf("Replay after 300 = (%d, %v), want %d applied", applied, err, len(ops)-300)
			}
			part.Quiesce(func() {})
			same(part, "replayed past 300")

			if applied, next, err := oplog.Replay(newEngine(), filepath.Join(t.TempDir(), "none"), 7); err != nil || applied != 0 || next != 8 {
				t.Fatalf("Replay of an empty log after 7 = (%d, %d, %v), want (0, 8, nil)", applied, next, err)
			}
			if _, _, err := oplog.Replay(newEngine(), bad, 0); err == nil || !strings.Contains(err.Error(), "record 3") {
				t.Fatalf("Replay of a zero-key record = %v, want an error naming record 3", err)
			}
		})
	}
}

// TestRestart covers the Restart branches only ghserver reaches: no
// image, no log (which returns a nil log), and an image with a mark but
// no log. Image plus log is every chaos and torture cycle's path.
func TestRestart(t *testing.T) {
	for _, spec := range []Spec{{Name: "grouphash", Capacity: 1 << 10}, {Name: "pfht-l", Capacity: 1 << 10}} {
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			img, base := filepath.Join(dir, "store.pmfs"), filepath.Join(dir, "oplog")
			writeLog(t, base, []core.BatchOp{
				{Kind: core.BatchPut, Key: key(1), Value: 10},
				{Kind: core.BatchInsert, Key: key(2), Value: 20},
				{Kind: core.BatchDelete, Key: key(1)},
			})

			// No image: a fresh engine, with the log replayed into it.
			e, lg, rec, err := Restart(spec, "", base, oplog.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.ReplayTime <= 0 {
				t.Fatalf("no image: replayed %d records in %v, want a positive time", rec.Replayed, rec.ReplayTime)
			}
			if rec != (Recovery{Replayed: 3, ReplayTime: rec.ReplayTime}) || e.Len() != 1 || lg.LastLSN() != 3 {
				t.Fatalf("no image: %+v, Len %d, log at LSN %d; want 3 replayed, 1 item, LSN 3", rec, e.Len(), lg.LastLSN())
			}
			lg.Abort()

			// No log, and no image file yet: a fresh engine and a nil log.
			if e, lg, rec, err = Restart(spec, img, "", oplog.Config{}); err != nil {
				t.Fatal(err)
			}
			if lg != nil || rec != (Recovery{}) || e.Len() != 0 {
				t.Fatalf("no log: (%v, %+v), Len %d; want a nil log, an empty engine", lg, rec, e.Len())
			}

			// An image with a mark but no log: loaded, nothing replayed.
			if err := put(e, key(5), 50); err != nil {
				t.Fatal(err)
			}
			write, err := e.SnapshotWriterAt(func() (uint64, error) { return 42, nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := write(img); err != nil {
				t.Fatal(err)
			}
			if e, lg, rec, err = Restart(spec, img, "", oplog.Config{}); err != nil {
				t.Fatal(err)
			}
			if lg != nil || rec != (Recovery{Loaded: true, Items: 1, Mark: 42}) {
				t.Fatalf("image, no log: (%v, %+v); want a nil log, 1 item at mark 42", lg, rec)
			}
			if v, ok := e.Get(key(5)); !ok || v != 50 {
				t.Fatalf("Get(5) = (%d, %t) after Restart, want (50, true)", v, ok)
			}
		})
	}
}

// TestRestartRefusesCorruptImage flips one bit in each part of a
// written image — header, freed-extent list, a body page — and
// requires pmfs.LoadImage, and through it Restart, to refuse it loudly
// rather than serve a silently damaged store. The flagship grows
// through online expansions first, so its image carries extents.
func TestRestartRefusesCorruptImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.pmfs")
	spec := Spec{Name: "grouphash", Capacity: 64}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]core.BatchOp, 4096)
	for i := range ops {
		ops[i] = core.BatchOp{Kind: core.BatchInsert, Key: key(uint64(i + 1)), Value: uint64(i)}
	}
	e.ApplyBatch(ops, make([]core.BatchResult, len(ops)), nil, nil)
	write, err := e.SnapshotWriterAt(func() (uint64, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	img, err := pmfs.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Freed) == 0 {
		t.Fatal("grown store's image has no freed extents")
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := pmfs.HeaderBytes + pmfs.ExtentBytes*len(img.Freed)
	for name, off := range map[string]int{
		"header":      2*8 + 1, // the watermark word
		"extent list": pmfs.HeaderBytes + 8 + 2,
		"body page":   body + (len(good)-body)/2,
	} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x04
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := pmfs.LoadImage(path); err == nil {
			t.Errorf("%s: LoadImage accepted a flipped bit at byte %d", name, off)
		}
		if _, _, _, err := Restart(spec, path, "", oplog.Config{}); err == nil {
			t.Errorf("%s: Restart served an image with a flipped bit at byte %d", name, off)
		}
	}
}

// TestReplayFullTableChurn pins why a fixed-capacity engine replays on
// one worker. It fills the table until an insert is refused, then logs
// 2000 churn steps — delete one key, put a fresh one — through
// ApplyBatch's committed hook, as the server logs. Each put may land
// only because the delete before it, of another key, made room, so the
// log replays only in log order: split by key, a put can reach the
// table before the delete it needs and be refused.
func TestReplayFullTableChurn(t *testing.T) {
	for _, name := range []string{"pfht", "pathhash", "chained", "linearprobe"} {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Name: name, Capacity: 256}
			live, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Join(t.TempDir(), "oplog")
			lg, err := oplog.OpenConfig(base, 1, oplog.Config{})
			if err != nil {
				t.Fatal(err)
			}
			logged := func(kind core.BatchKind, k uint64) error {
				ops := []core.BatchOp{{Kind: kind, Key: key(k), Value: k}}
				out := make([]core.BatchResult, 1)
				live.ApplyBatch(ops, out, nil, func(applied []int) {
					for _, i := range applied {
						lg.AppendBatch([]oplog.Record{{BatchOp: ops[i]}})
					}
				})
				return out[0].Err
			}
			var stored []uint64
			next := uint64(1)
			for ; ; next++ {
				err := logged(core.BatchInsert, next)
				if errors.Is(err, hashtab.ErrTableFull) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				stored = append(stored, next)
			}
			rng := rand.New(rand.NewSource(1))
			for step := 0; step < 2000; step++ {
				i := rng.Intn(len(stored))
				if err := logged(core.BatchDelete, stored[i]); err != nil {
					t.Fatal(err)
				}
				// A refused put is not logged; try fresh keys until one lands.
				for tries := 0; ; tries++ {
					next++
					err := logged(core.BatchPut, next)
					if err == nil {
						break
					}
					if !errors.Is(err, hashtab.ErrTableFull) || tries == 1<<16 {
						t.Fatalf("step %d: put of a fresh key: %v after %d tries", step, err, tries)
					}
				}
				stored[i] = next
			}
			if err := lg.WaitDurable(lg.LastLSN()); err != nil {
				t.Fatal(err)
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}

			e, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := oplog.Replay(e, base, 0); err != nil {
				t.Fatalf("Replay of a full-table churn log: %v", err)
			}
			if e.Len() != live.Len() || e.Len() != uint64(len(stored)) {
				t.Fatalf("replayed Len = %d, live %d, want %d", e.Len(), live.Len(), len(stored))
			}
			for k := uint64(1); k <= next; k++ {
				wv, wok := live.Get(key(k))
				if v, ok := e.Get(key(k)); ok != wok || v != wv {
					t.Fatalf("Get(%d) = (%d, %t) replayed, (%d, %t) live", k, v, ok, wv, wok)
				}
			}
			requireClean(t, e)
		})
	}
}
