package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"grouphash/internal/client"
	"grouphash/internal/core"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
)

// TestChaosMatrix is the chaos gate (`make chaos-smoke`): 21 seeded
// schedules — the flagship plus the two logged comparison schemes,
// seven seeds each — of six randomized events apiece, every event
// followed by a full recovery and map-oracle audit (zero lost acked
// writes, zero phantom keys, exact item count, structural
// consistency). Schedules derive entirely from (engine, seed), so a
// failure prints the exact command that replays it.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is the long deterministic gate; skipped in -short")
	}
	engines := []struct {
		name     string
		capacity uint64
	}{
		// A small flagship capacity so the schedule's insert load
		// drives real online expansions mid-chaos; the fixed-capacity
		// logged adapters get room for the full schedule's churn.
		{"grouphash", 1 << 10},
		{"pfht-l", 1 << 16},
		{"linearprobe-l", 1 << 16},
	}
	const (
		seeds  = 7
		events = 6
	)
	for _, e := range engines {
		for seed := int64(1); seed <= seeds; seed++ {
			name := fmt.Sprintf("%s/seed=%d", e.name, seed)
			t.Run(name, func(t *testing.T) {
				sched := NewSchedule(seed, events)
				_, err := Run(Config{
					Engine:   e.name,
					Capacity: e.capacity,
					Seed:     seed,
					Events:   sched,
					Dir:      t.TempDir(),
					Log:      oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10},
					Logf:     t.Logf,
				})
				if err != nil {
					t.Fatalf("schedule %v failed: %v\nreproduce with:\n  go test -race -count=1 -run 'TestChaosMatrix/%s' ./internal/chaos",
						sched, err, name)
				}
			})
		}
	}
}

// TestCrashTorture pins the crash points a random schedule reaches only
// by chance: every crash is a power cut (the commit in flight fails
// after writing its records, then the unsynced tail is torn), taken
// under load at one of a snapshot's durable steps, and the recovery of
// every odd generation and the final one is preceded by a crash in the
// middle of replay. Each leg is one schedule against the flagship at a
// small capacity, so the load forces online expansions:
//
//	kill+tear      under pure load (log tail mid-group-commit)
//	cut-rotated    mid-snapshot: log rotated, image never written
//	cut-imaged     mid-snapshot: image durable, log not yet truncated
//	cut-truncated  right after a completed snapshot + truncation
//
// The zero-window leg (the zero oplog.Config, which fsyncs as soon as a
// record is staged) cuts at the two mid-snapshot points only: ghchaos's
// zero-window row in make torture serves with the identical log and
// SIGKILLs under load, after 25 ms periodic snapshots have completed
// and truncated the log. The two windowed legs take all four and grow
// segments in 4 KiB steps, small enough that every generation grows its
// segment several times, so cuts land in regions a growth commit
// zero-filled. A leg fails if the flagship refused an op for lack of
// room (an expansion or rebuild failed) or committed no expansion at
// all, and unless every cut tore a written but unsynced tail and, with
// growth steps, some cut landed past the first.
func TestCrashTorture(t *testing.T) {
	all := []Kind{KindKillTear, KindCutRotated, KindCutImaged, KindCutTruncated}
	for _, leg := range []struct {
		name    string
		crashes int
		log     oplog.Config
		kinds   []Kind
	}{
		{"zero-window", 24, oplog.Config{}, []Kind{KindCutRotated, KindCutImaged}},
		{"adaptive-100us-64KiB", 16, oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 10}, all},
		{"adaptive-1ms-256KiB", 16, oplog.Config{SyncEvery: time.Millisecond, SyncBytes: 256 << 10, PreallocBytes: 4 << 10}, all},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			events := make([]Event, leg.crashes)
			for i := range events {
				events[i] = Event{Kind: leg.kinds[i%len(leg.kinds)], Delay: time.Duration(5+rng.Intn(10)) * time.Millisecond}
			}
			res, err := Run(Config{
				Engine: "grouphash",
				// Small enough that even a -race run's load forces
				// several expansions: at 4096 a leg committed only one.
				Capacity: 1 << 10,
				Seed:     1,
				Events:   events,
				Dir:      t.TempDir(),
				Log:      leg.log,
				Logf:     t.Logf,
			})
			if err != nil {
				t.Fatalf("schedule %v failed: %v", events, err)
			}
			if res.Full != 0 {
				t.Fatalf("the flagship refused %d ops for lack of room", res.Full)
			}
			t.Logf("%d online expansions committed", res.Expansions)
			if res.Expansions == 0 {
				t.Fatal("the flagship committed no online expansion: every one failed, or the load never forced one")
			}
			t.Logf("%d of %d crashes cut a written but unsynced tail", res.Torn, res.Cuts)
			if res.Torn < res.Cuts {
				t.Fatalf("%d crashes left no unsynced tail: their tear cut only what was already durable", res.Cuts-res.Torn)
			}
			if step := leg.log.PreallocBytes; step > 0 {
				t.Logf("%d of %d crashes landed past the first %d-byte growth step", res.Grown, res.Cuts, step)
				if res.Grown == 0 {
					t.Fatalf("no crash landed in a grown segment region: growth step %d is too large for this load", step)
				}
			}
		})
	}
}

// TestWireAudit pins the over-the-wire audit cmd/ghchaos runs: after
// the model has driven a served engine, faults planted straight through
// ApplyBatch — behind the model's back — must each be reported by the
// Audit fed with client.MGet and client.Len.
func TestWireAudit(t *testing.T) {
	eng, err := engine.New(engine.Spec{Name: "grouphash", Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Drain() })

	m := NewModel(2)
	stop := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(stop) })
	if err := m.Load(ln.Addr().String(), stop, KindKill); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var present, absent uint64
	for k, ks := range m.workers[0].keys {
		switch ks.state {
		case ackedPresent:
			present = k
		case ackedAbsent:
			absent = k
		}
	}
	if present == 0 || absent == 0 {
		t.Fatalf("load left no acked-present (%#x) or acked-absent (%#x) key", present, absent)
	}
	op := func(kind core.BatchKind, k, v uint64) core.BatchOp {
		return core.BatchOp{Kind: kind, Key: layout.Key{Lo: k}, Value: v}
	}
	val := m.workers[0].keys[present].val
	// Each fault's ops first repair the fault before it.
	for _, f := range []struct {
		name, want string
		ops        []core.BatchOp
	}{
		{"untouched store", "", nil},
		{"delete an acked key", "ACKED WRITE LOST", []core.BatchOp{op(core.BatchDelete, present, 0)}},
		{"insert an acked-absent key", "PHANTOM KEY", []core.BatchOp{op(core.BatchInsert, present, val), op(core.BatchInsert, absent, 1)}},
		{"insert a duplicate of a present key", "replay applied something twice", []core.BatchOp{op(core.BatchDelete, absent, 0), op(core.BatchInsert, present, val)}},
	} {
		out := make([]core.BatchResult, len(f.ops))
		eng.ApplyBatch(f.ops, out, nil, nil)
		for _, r := range out {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		n, err := c.Len()
		if err == nil {
			err = m.Audit(c.MGet, n)
		}
		if (err == nil) != (f.want == "") || !strings.Contains(fmt.Sprint(err), f.want) {
			t.Fatalf("%s: audit returned %v, want %q", f.name, err, f.want)
		}
		t.Logf("%s: %v", f.name, err)
	}
}

// TestScheduleDeterminism pins that a schedule derives from its seed
// alone — the property every reproduction command relies on.
func TestScheduleDeterminism(t *testing.T) {
	a := NewSchedule(99, 50)
	b := NewSchedule(99, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged for the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewSchedule(100, 50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every drawn kind appears somewhere across a modest seed range; the
	// cut kinds, listed only by schedules that pin them, never do.
	seen := map[Kind]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		for _, ev := range NewSchedule(seed, 6) {
			seen[ev.Kind] = true
		}
	}
	for k := KindKill; k <= KindCutTruncated; k++ {
		if seen[k] != (k <= KindExpand) {
			t.Fatalf("kind %v drawn across 20 seeds: %v", k, seen[k])
		}
	}
}
