package server

import (
	"net"
	"path/filepath"
	"testing"

	"grouphash"
	"grouphash/internal/engine"
	"grouphash/internal/layout"
)

// startEngineServer is startServer for the engine seam: the caller
// supplies a ready engine (fresh or reloaded) instead of store options.
func startEngineServer(t *testing.T, eng engine.Engine, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Engine = eng
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Drain()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s, ln.Addr().String()
}

func TestEngineConfigValidation(t *testing.T) {
	eng, err := engine.New(engine.Spec{Name: "pfht", Capacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng}); err != nil {
		t.Fatalf("New with an adapter engine: %v", err)
	}
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: st}); err != nil {
		t.Fatalf("New with a concurrent flagship store: %v", err)
	}
}

// TestEngineServeSnapshotRestart is the per-engine acceptance cycle:
// every engine serves real wire traffic, drains to a final image, and
// a fresh process-equivalent (engine.Load + new server) comes back with
// every acked write and keeps serving.
func TestEngineServeSnapshotRestart(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			img := filepath.Join(dir, "store.pmfs")
			spec := engine.Spec{Name: name, Capacity: 1 << 12}
			eng, err := engine.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			s, addr := startEngineServer(t, eng, Config{SnapshotPath: img})
			c := dial(t, addr)

			const n = 400
			for i := uint64(1); i <= n; i++ {
				if err := c.Put(spreadKey(i), i*10); err != nil {
					t.Fatalf("%s: Put %d: %v", name, i, err)
				}
			}
			// Deletes and overwrites so the image captures real churn,
			// not just a monotone insert sequence.
			for i := uint64(1); i <= n/4; i++ {
				if ok, err := c.Delete(spreadKey(i)); err != nil || !ok {
					t.Fatalf("%s: Delete %d = (%v, %v)", name, i, ok, err)
				}
			}
			for i := uint64(n/4 + 1); i <= n/2; i++ {
				if err := c.Put(spreadKey(i), i*100); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(); err != nil {
				t.Fatalf("%s: drain: %v", name, err)
			}

			re, mark, err := engine.Load(spec, img)
			if err != nil {
				t.Fatalf("%s: Load: %v", name, err)
			}
			if mark != 0 {
				t.Fatalf("%s: oplog mark = %d without an oplog", name, mark)
			}
			if got := re.Len(); got != n-n/4 {
				t.Fatalf("%s: reloaded Len = %d, want %d", name, got, n-n/4)
			}
			if bad := re.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("%s: reloaded engine inconsistent: %v", name, bad)
			}

			// Second generation: the reloaded engine must serve reads of
			// the surviving keys and accept fresh writes.
			_, addr2 := startEngineServer(t, re, Config{SnapshotPath: img})
			c2 := dial(t, addr2)
			for i := uint64(1); i <= n/4; i++ {
				if _, ok, err := c2.Get(spreadKey(i)); err != nil || ok {
					t.Fatalf("%s: deleted key %d = (ok=%v, %v) after restart", name, i, ok, err)
				}
			}
			for i := uint64(n/4 + 1); i <= n; i++ {
				want := i * 10
				if i <= n/2 {
					want = i * 100
				}
				if v, ok, err := c2.Get(spreadKey(i)); err != nil || !ok || v != want {
					t.Fatalf("%s: key %d = (%d, %v, %v) after restart, want %d", name, i, v, ok, err, want)
				}
			}
			if err := c2.Insert(spreadKey(n+1), 1); err != nil {
				t.Fatalf("%s: Insert after restart: %v", name, err)
			}
			if got, err := c2.Len(); err != nil || got != n-n/4+1 {
				t.Fatalf("%s: Len after restart = (%d, %v)", name, got, err)
			}
		})
	}
}

// spreadKey uses the bench workers' spreading constant so the keys land
// across the whole table rather than one probe cluster.
func spreadKey(i uint64) layout.Key {
	return layout.Key{Lo: i, Hi: i * 0x9e3779b97f4a7c15}
}
