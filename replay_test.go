package grouphash

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"grouphash/internal/hashtab"
	"grouphash/internal/memsim"
	"grouphash/internal/oplog"
)

// TestStoreKeyIndependent pins which stores oplog.Replay splits by key:
// only a concurrent store with online expansion armed, the one store
// that grows instead of refusing an insert for lack of room.
func TestStoreKeyIndependent(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		want bool
	}{
		{"concurrent", Options{Concurrent: true}, true},
		{"concurrent, DisableExpand", Options{Concurrent: true, DisableExpand: true}, false},
		{"concurrent, simulated memory", Options{Capacity: 1024, Concurrent: true, Memory: memsim.New(memsim.Config{Size: 1 << 20})}, false},
		{"sequential", Options{}, false},
	} {
		s, err := New(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.KeyIndependent(); got != c.want {
			t.Errorf("%s: KeyIndependent = %t, want %t", c.name, got, c.want)
		}
	}
}

// TestReplayFullTableChurn is the flagship's half of the engine
// package's test of the same name: a concurrent store with expansion
// disabled is filled until an insert is refused, then 2000 churn steps
// — delete one key, put a fresh one — are logged through ApplyBatch's
// committed hook. Each put may land only because the delete before it
// made room, so the log must replay in log order, on one worker.
func TestReplayFullTableChurn(t *testing.T) {
	// A nonzero seed: with seed 0 a key's group and the worker Replay
	// would route it to both come from the top bits of xhash.Mix64(Lo),
	// so a split would keep each group on one worker and hide the hazard.
	opts := Options{Capacity: 512, Seed: 7, Concurrent: true, DisableExpand: true}
	live, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "oplog")
	lg, err := oplog.OpenConfig(base, 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	logged := func(kind BatchKind, k uint64) error {
		ops := []BatchOp{{Kind: kind, Key: Key{Lo: k}, Value: k}}
		out := make([]BatchResult, 1)
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
		err := logged(BatchInsert, next)
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
		if err := logged(BatchDelete, stored[i]); err != nil {
			t.Fatal(err)
		}
		// A refused put is not logged; try fresh keys until one lands.
		for tries := 0; ; tries++ {
			next++
			err := logged(BatchPut, next)
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

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReplayOplog(base, 0); err != nil {
		t.Fatalf("ReplayOplog of a full-table churn log: %v", err)
	}
	if s.Len() != live.Len() || s.Len() != uint64(len(stored)) {
		t.Fatalf("replayed Len = %d, live %d, want %d", s.Len(), live.Len(), len(stored))
	}
	for k := uint64(1); k <= next; k++ {
		wv, wok := live.Get(Key{Lo: k})
		if v, ok := s.Get(Key{Lo: k}); ok != wok || v != wv {
			t.Fatalf("Get(%d) = (%d, %t) replayed, (%d, %t) live", k, v, ok, wv, wok)
		}
	}
	if bad := s.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("CheckConsistency: %v", bad)
	}
}
