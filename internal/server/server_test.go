package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grouphash"
	"grouphash/internal/client"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/wire"
)

// startServer spins up a server on a loopback port and returns it with
// its address and a cleanup-registered drain.
func startServer(t *testing.T, opts grouphash.Options, cfg Config) (*Server, string) {
	t.Helper()
	opts.Concurrent = true
	st, err := grouphash.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = st
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

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without an engine must fail")
	}
	seq, err := grouphash.New(grouphash.Options{Capacity: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: seq}); err == nil {
		t.Fatal("New with a non-concurrent store must fail")
	}
}

// TestServeAfterShutdownReturns pins the start-up race a caller hits
// when it runs Serve on a goroutine and drains (or aborts) before that
// goroutine is scheduled: Serve must return instead of blocking in
// Accept on a listener nothing will ever close.
func TestServeAfterShutdownReturns(t *testing.T) {
	for name, shutdown := range map[string]func(*Server){
		"drain": func(s *Server) { s.Drain() },
		"abort": (*Server).Abort,
	} {
		t.Run(name, func(t *testing.T) {
			st, err := grouphash.New(grouphash.Options{Capacity: 1 << 10, Concurrent: true})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Engine: st})
			if err != nil {
				t.Fatal(err)
			}
			shutdown(s)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- s.Serve(ln) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Serve after %s = %v, want nil", name, err)
				}
			case <-time.After(5 * time.Second):
				ln.Close() // release the stuck Accept
				<-done
				t.Fatalf("Serve blocked in Accept after %s", name)
			}
		})
	}
}

func TestServeBasicOps(t *testing.T) {
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 12}, Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(layout.Key{Lo: 7}, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(layout.Key{Lo: 7}); err != nil || !ok || v != 70 {
		t.Fatalf("Get = (%d, %v, %v)", v, ok, err)
	}
	if _, ok, err := c.Get(layout.Key{Lo: 999}); err != nil || ok {
		t.Fatalf("absent Get = (ok=%v, %v)", ok, err)
	}
	if err := c.Put(layout.Key{Lo: 7}, 71); err != nil { // overwrite, no duplicate
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v)", n, err)
	}
	if err := c.Insert(layout.Key{Lo: 8}, 80); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Delete(layout.Key{Lo: 7}); err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if ok, err := c.Delete(layout.Key{Lo: 7}); err != nil || ok {
		t.Fatalf("second Delete = (%v, %v)", ok, err)
	}
	// The concurrent wrapper's zero-key rejection travels the wire as
	// a typed error.
	if err := c.Put(layout.Key{}, 1); !errors.Is(err, client.ErrInvalidKey) {
		t.Fatalf("zero-key Put = %v, want ErrInvalidKey", err)
	}
	if m := s.Stats(); m.Writes == 0 || m.Reads == 0 || m.InvalidKey != 1 {
		t.Fatalf("counters = %+v", m)
	}
}

func TestServePipelined(t *testing.T) {
	_, addr := startServer(t, grouphash.Options{Capacity: 1 << 12}, Config{})
	c := dial(t, addr)

	const n = 500
	reqs := make([]wire.Request, 0, n)
	for i := uint64(1); i <= n; i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: i}, Value: i * 2})
	}
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != wire.StatusOK {
			t.Fatalf("put %d status %d", i, r.Status)
		}
	}
	// Mixed batch, responses must line up positionally.
	mixed := []wire.Request{
		{Op: wire.OpGet, Key: layout.Key{Lo: 3}},
		{Op: wire.OpDelete, Key: layout.Key{Lo: 3}},
		{Op: wire.OpGet, Key: layout.Key{Lo: 3}},
		{Op: wire.OpLen},
		{Op: 99}, // unknown opcode
	}
	resps, err = c.Do(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Status != wire.StatusOK || resps[0].Value != 6 {
		t.Fatalf("get before delete = %+v", resps[0])
	}
	if resps[1].Status != wire.StatusOK {
		t.Fatalf("delete = %+v", resps[1])
	}
	if resps[2].Status != wire.StatusNotFound {
		t.Fatalf("get after delete = %+v", resps[2])
	}
	if resps[3].Status != wire.StatusOK || resps[3].Value != n-1 {
		t.Fatalf("len = %+v", resps[3])
	}
	if resps[4].Status != wire.StatusBadRequest {
		t.Fatalf("unknown op = %+v", resps[4])
	}
}

func TestServerFull(t *testing.T) {
	_, addr := startServer(t,
		grouphash.Options{Capacity: 64, GroupSize: 8, DisableExpand: true}, Config{})
	c := dial(t, addr)
	var sawFull bool
	for i := uint64(1); i <= 4096; i++ {
		if err := c.Put(layout.Key{Lo: i}, i); err != nil {
			if errors.Is(err, client.ErrFull) {
				sawFull = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("concurrent store with expansion disabled never reported ErrFull")
	}
}

// TestServerOnlineExpansion is the acceptance scenario for stop-less
// growth: a write-heavy workload many times the store's initial
// capacity, from several connections at once, must complete with ZERO
// StatusFull responses — the table expands online underneath the
// writers — and every acked key must be readable afterwards.
func TestServerOnlineExpansion(t *testing.T) {
	s, addr := startServer(t, grouphash.Options{Capacity: 64, GroupSize: 8}, Config{})

	const workers = 4
	const perWorker = 1024 // 4096 keys through a 64-capacity store
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, 5*time.Second)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			base := uint64(w) << 32
			for i := uint64(1); i <= perWorker; i++ {
				if err := c.Put(layout.Key{Lo: base + i}, base+i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if full := s.Stats().Full; full != 0 {
		t.Fatalf("saw %d StatusFull responses, want 0", full)
	}
	if exp := s.cfg.Engine.Expansions(); exp == 0 {
		t.Fatal("store never expanded despite 64x overload")
	}
	c := dial(t, addr)
	for w := 0; w < workers; w++ {
		base := uint64(w) << 32
		for i := uint64(1); i <= perWorker; i++ {
			v, ok, err := c.Get(layout.Key{Lo: base + i})
			if err != nil || !ok || v != base+i {
				t.Fatalf("key %d/%d: v=%d ok=%v err=%v", w, i, v, ok, err)
			}
		}
	}
}

// TestDrainAndReload is the acceptance scenario: writers are mid-load
// when Drain fires; every write acked before the drain must be present
// in the final image when a new store reloads it.
func TestDrainAndReload(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "store.pmfs")
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 16},
		Config{SnapshotPath: img})

	const workers = 4
	acked := make([][]uint64, workers) // keys acked per worker, disjoint ranges
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			base := uint64(w) << 32
			for i := uint64(1); ; i++ {
				if err := c.Put(layout.Key{Lo: base + i}, i); err != nil {
					return // drain closed the conn; everything before was acked
				}
				acked[w] = append(acked[w], base+i)
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond) // let real load build up
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	var total int
	for _, keys := range acked {
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("no writes were acked before the drain; test proves nothing")
	}
	t.Logf("acked %d writes before drain", total)

	re, err := grouphash.LoadSnapshot(img, true)
	if err != nil {
		t.Fatal(err)
	}
	for w, keys := range acked {
		for _, k := range keys {
			if v, ok := re.Get(layout.Key{Lo: k}); !ok || v != k&0xffffffff {
				t.Fatalf("worker %d: acked key %#x = (%d, %v) after reload", w, k, v, ok)
			}
		}
	}
	if bad := re.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("reloaded store inconsistent: %v", bad)
	}
}

// TestSnapshotWhileServing drives churn while the periodic snapshot
// loop runs at an aggressive interval: every snapshot must quiesce to
// a consistent image, and the last one must reopen cleanly.
func TestSnapshotWhileServing(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "store.pmfs")
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 14},
		Config{SnapshotPath: img, SnapshotEvery: 10 * time.Millisecond})

	const workers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			base := uint64(w+1) << 20
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := layout.Key{Lo: base + i%500 + 1}
				switch i % 3 {
				case 0, 1:
					if err := c.Put(k, i); err != nil {
						return
					}
				case 2:
					if _, err := c.Delete(k); err != nil {
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Stats().Snapshots < 3 {
		t.Fatalf("only %d periodic snapshots in 200ms at a 10ms interval", s.Stats().Snapshots)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	re, err := grouphash.LoadSnapshot(img, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad := re.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("image written under churn is inconsistent: %v", bad)
	}
}

// TestDrainRefusesBufferedWrites checks the drain contract from the
// protocol side: once Drain begins, writes the server has already
// buffered are answered StatusDraining — observed here by a real
// client — and the final image contains exactly the OK-acked keys:
// every acked key present, every refused key absent. Background
// writers keep pipelined put bursts in flight across the drain, and one
// burst is made to straddle it: drainTrigger starts the drain inside
// the apply of its first run, so that burst always yields both OK and
// Draining responses.
func TestDrainRefusesBufferedWrites(t *testing.T) {
	img := filepath.Join(t.TempDir(), "store.pmfs")
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 14, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := drainUnderLoad(t, Config{SnapshotPath: img, Logf: t.Logf}, st, 256)

	// acked ⊆ image, refused ∩ image = ∅.
	re, err := grouphash.LoadSnapshot(img, true)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for w := range outs {
		refused += len(outs[w].refused)
		for _, k := range outs[w].acked {
			if v, ok := re.Get(layout.Key{Lo: k}); !ok || v != k {
				t.Fatalf("acked key %#x = (%d, %v) after reload", k, v, ok)
			}
		}
		for _, k := range outs[w].refused {
			if _, ok := re.Get(layout.Key{Lo: k}); ok {
				t.Fatalf("key %#x answered StatusDraining yet present in final image", k)
			}
		}
	}
	t.Logf("%d writes refused with StatusDraining", refused)
}

// TestPipelinedSpillNeverAcksUnsynced is the regression test for the
// bufio spill hole: responses are 13 bytes into a 64KiB write buffer,
// so a client pipelining thousands of requests without reading used
// to overflow the buffer and let bufio auto-flush OK acks before the
// oplog fsync covering them ran (the Buffered()==0 sync point never
// fires while the client keeps the pipe full). Saturate one
// connection with far more writes than the buffer holds and assert,
// at every ack the client observes, that the oplog's durable LSN has
// already passed it.
func TestPipelinedSpillNeverAcksUnsynced(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  oplog.Config
	}{
		{"zero-window", oplog.Config{}},
		{"adaptive", oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 8 << 10}},
	} {
		t.Run(mode.name, func(t *testing.T) { pipelinedSpill(t, mode.cfg) })
	}
}

func pipelinedSpill(t *testing.T, lcfg oplog.Config) {
	lg, err := oplog.OpenConfig(filepath.Join(t.TempDir(), "oplog"), 1, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, grouphash.Options{Capacity: 1 << 16}, Config{Oplog: lg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// 8000 responses = ~104KiB, well past the server's 64KiB write
	// buffer. Written as one burst so the server's read buffer stays
	// non-empty and the drained-input sync point cannot save it.
	const n = 8000
	go func() {
		buf := make([]byte, 0, n*(4+wire.ReqBodyLen))
		for i := uint64(1); i <= n; i++ {
			buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: i}, Value: i})
		}
		conn.Write(buf)
	}()
	br := bufio.NewReader(conn)
	for acks := uint64(1); acks <= n; acks++ {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", acks, err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("response %d status %d", acks, resp.Status)
		}
		// This connection is the only appender, so ack k answers LSN k.
		if d := lg.DurableLSN(); d < acks {
			t.Fatalf("ack %d reached the wire with durable LSN %d — acked before fsync", acks, d)
		}
	}
}

// TestStickyOplogFailureShutsDown pins the failure policy: once an
// oplog sync fails, the error is sticky — nothing can ever be acked
// again — so the server must come down instead of lingering as a
// zombie that applies mutations no client will see acked.
func TestStickyOplogFailureShutsDown(t *testing.T) {
	lg, err := oplog.OpenConfig(filepath.Join(t.TempDir(), "oplog"), 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 10, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: st, Oplog: lg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	c := dial(t, ln.Addr().String())
	if err := c.Put(layout.Key{Lo: 1}, 1); err != nil {
		t.Fatal(err)
	}
	// Kill the log out from under the server — every future
	// WaitDurable now fails, standing in for a sticky I/O error.
	lg.Abort()
	if err := c.Put(layout.Key{Lo: 2}, 2); err == nil {
		t.Fatal("write acked after the oplog died")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut itself down after a sticky oplog failure")
	}
	s.Drain() // join the self-drain; its error (if any) is the sync failure already observed
	if _, err := client.Dial(ln.Addr().String(), 0); err == nil {
		t.Fatal("server still accepting connections after oplog failure")
	}
}

// TestConnsActiveNeverUnderflows is the regression test for the
// Stats() gauge: it used to be computed as accepted − closed from two
// independent atomics, so a sampler interleaving with a connection's
// teardown could read ~2^64. Hammer short-lived connections while a
// sampler polls. The bound is the invariant the gauge guarantees, not
// a timing guess (handlers lag behind client closes by design, so the
// live count can exceed the dialers): the accept loop counts a
// connection accepted before it counts it active, so ConnsActive read
// BEFORE ConnsAccepted can never exceed it — an underflow would.
func TestConnsActiveNeverUnderflows(t *testing.T) {
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 10}, Config{})

	const dialers = 8
	const perDialer = 50
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			active := s.Stats().ConnsActive
			if accepted := s.Stats().ConnsAccepted; active > accepted {
				t.Errorf("ConnsActive = %d exceeds ConnsAccepted = %d", active, accepted)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perDialer; i++ {
				c, err := client.Dial(addr, time.Second)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				c.Ping()
				c.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if got := s.Stats().ConnsAccepted; got < dialers*perDialer {
		t.Fatalf("ConnsAccepted = %d, want at least %d", got, dialers*perDialer)
	}
}

// TestGroupCommitFailureFanOutServer drives the batch-failure contract
// end to end: an injected fsync failure mid-load must tear down every
// connection whose batch it covered WITHOUT acking any member, flip the
// server into its self-drain exactly once, and leave a log whose
// guaranteed-durable prefix (everything up to SyncedSize — what a
// power failure preserves) still contains every write that WAS acked.
func TestGroupCommitFailureFanOutServer(t *testing.T) {
	base := filepath.Join(t.TempDir(), "oplog")
	lg, err := oplog.OpenConfig(base, 1, oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	boom := errors.New("injected fsync failure")
	oplog.SetTestFsyncErr(func() error {
		if armed.Load() {
			return boom
		}
		return nil
	})
	defer oplog.SetTestFsyncErr(nil)

	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 14, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: st, Oplog: lg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	const workers = 4
	acked := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ln.Addr().String(), time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			base := uint64(w+1) << 32
			for i := uint64(0); ; i += 16 {
				reqs := make([]wire.Request, 16)
				for j := range reqs {
					k := base + i + uint64(j) + 1
					reqs[j] = wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k}
				}
				resps, err := c.Do(reqs)
				if err != nil {
					return // torn down unacked: the failed batch's fate
				}
				for j, r := range resps {
					switch r.Status {
					case wire.StatusOK:
						acked[w] = append(acked[w], reqs[j].Key.Lo)
					case wire.StatusDraining:
						return
					default:
						t.Errorf("status %d", r.Status)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	armed.Store(true)
	wg.Wait()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not self-drain after the fsync failure")
	}
	s.Drain() // join the self-drain; its error is the injected failure

	// Power-failure semantics: only the fsynced prefix is guaranteed.
	// Truncate the (now closed) active segment there and replay — every
	// acked write must still be present; if any member of the failed
	// batch had been acked, it would be missing now.
	synced, path := lg.SyncedSize(), lg.ActivePath()
	if err := os.Truncate(path, synced); err != nil {
		t.Fatal(err)
	}
	oplog.SetTestFsyncErr(nil)
	onDisk := make(map[uint64]bool)
	if _, _, err := oplog.Scan(base, 0, func(r *oplog.Record) error {
		onDisk[r.Key.Lo] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
		for _, k := range acked[w] {
			if !onDisk[k] {
				t.Fatalf("key %#x was acked OK but is not in the guaranteed-durable log prefix", k)
			}
		}
	}
	t.Logf("%d acked writes, all inside the durable prefix", total)
}

// drainTrigger is the flagship store with one ApplyBatch rigged: the
// run that starts with key begins the server's drain and applies only
// once the draining flag is up — the run that slipped past
// flushCoalesced's check just before Drain flipped it.
type drainTrigger struct {
	*grouphash.Store
	key layout.Key
	srv *Server
}

func (d *drainTrigger) ApplyBatch(ops []grouphash.BatchOp, out []grouphash.BatchResult, sc *grouphash.BatchScratch, committed func(applied []int)) {
	if len(ops) > 0 && ops[0].Key == d.key {
		go d.srv.Drain()
		for !d.srv.Draining() {
			runtime.Gosched()
		}
	}
	d.Store.ApplyBatch(ops, out, sc, committed)
}

// drainOutcome is one client's view of a drain: the keys answered
// StatusOK and the keys answered StatusDraining.
type drainOutcome struct{ acked, refused []uint64 }

// putUntilRefused pipelines bursts of batch fresh puts (keys base+1,
// base+2, ...) until a burst comes back with StatusDraining or the
// connection dies, recording every answered key in out.
func putUntilRefused(t *testing.T, addr string, base uint64, batch int, out *drainOutcome) {
	c, err := client.Dial(addr, time.Second)
	if err != nil {
		t.Errorf("dial: %v", err)
		return
	}
	defer c.Close()
	for i := uint64(0); ; i += uint64(batch) {
		reqs := make([]wire.Request, batch)
		for j := range reqs {
			k := base + i + uint64(j) + 1
			reqs[j] = wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k}
		}
		resps, err := c.Do(reqs)
		if err != nil {
			return // conn died mid-burst; no acks from it
		}
		for j, r := range resps {
			k := reqs[j].Key.Lo
			switch r.Status {
			case wire.StatusOK:
				out.acked = append(out.acked, k)
			case wire.StatusDraining:
				out.refused = append(out.refused, k)
			default:
				t.Errorf("unexpected status %d", r.Status)
			}
		}
		if len(out.refused) > 0 {
			return // server is draining; the conn is done for
		}
	}
}

// straddleDrain sends the burst that straddles the drain to a server
// whose engine is a drainTrigger keyed on sbase+1: half puts, a get of
// the first, half more puts. The first run starts the drain and is
// acked; the puts buffered behind the get's read barrier are refused.
// It checks every response's status and records the keys in out. The
// burst is a few hundred bytes, so the server reads it whole before
// the drain's read deadline can cut the connection.
func straddleDrain(t *testing.T, addr string, sbase uint64, half int, out *drainOutcome) {
	t.Helper()
	c := dial(t, addr)
	var reqs []wire.Request
	for k := sbase + 1; k <= sbase+2*uint64(half); k++ {
		if k == sbase+uint64(half)+1 {
			reqs = append(reqs, wire.Request{Op: wire.OpGet, Key: layout.Key{Lo: sbase + 1}})
		}
		reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: k})
	}
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatalf("straddling burst: %v", err)
	}
	for j, r := range resps {
		req := reqs[j]
		switch {
		case req.Op == wire.OpGet:
			if r.Status != wire.StatusOK || r.Value != sbase+1 {
				t.Fatalf("get behind the acked run = %+v", r)
			}
		case j < half && r.Status == wire.StatusOK:
			out.acked = append(out.acked, req.Key.Lo)
		case j > half && r.Status == wire.StatusDraining:
			out.refused = append(out.refused, req.Key.Lo)
		default:
			t.Fatalf("straddling burst op %d (key %#x) answered status %d", j, req.Key.Lo, r.Status)
		}
	}
}

// drainUnderLoad serves st, wrapped in a drainTrigger, under cfg while
// four background writers pipeline bursts of batch puts; it then sends
// the straddling burst, which starts the drain, waits for the drain,
// the writers and Serve to finish, and returns every client's outcome,
// the straddling client's last.
func drainUnderLoad(t *testing.T, cfg Config, st *grouphash.Store, batch int) []drainOutcome {
	t.Helper()
	const workers, half = 4, 8
	sbase := uint64(0xff) << 32
	trig := &drainTrigger{Store: st, key: layout.Key{Lo: sbase + 1}}
	cfg.Engine = trig
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trig.srv = s
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	outs := make([]drainOutcome, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			putUntilRefused(t, ln.Addr().String(), uint64(w+1)<<32, batch, &outs[w])
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	straddleDrain(t, ln.Addr().String(), sbase, half, &outs[workers])
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	return outs
}

// TestDrainStraddleDurability is the oplog-enabled drain/apply race
// test: pipelined writers hammer a 200µs-window server while
// Drain flips the draining flag under them. flushCoalesced checks the
// flag BEFORE the stripe-locked (apply, append) pairs; this test pins
// the ordering argument that makes that safe — Drain waits for every
// handler before cutting the final image, so acked ⇒ in the image,
// refused ⇒ absent, and the post-image log replays nothing. The
// straddle is forced, not hoped for: one client pipelines puts, a
// read barrier and more puts in one burst, and drainTrigger starts the
// drain inside the first run's apply, so that run is acked and the
// puts buffered behind the barrier are refused.
func TestDrainStraddleDurability(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "store.pmfs")
	logBase := filepath.Join(dir, "oplog")
	lg, err := oplog.OpenConfig(logBase, 1, oplog.Config{SyncEvery: 200 * time.Microsecond, SyncBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := grouphash.New(grouphash.Options{Capacity: 1 << 14, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := drainUnderLoad(t, Config{SnapshotPath: img, Oplog: lg, Logf: t.Logf}, st, 128)

	// Full recovery: image + replay past its mark. The drain's final
	// snapshot must already cover every acked write (replay finds
	// nothing), contain no refused one, and the count must match.
	re, mark, err := grouphash.LoadSnapshotMark(img, true)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := re.ReplayOplog(logBase, mark)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d records past the final image's mark %d — the drain snapshot missed acked writes", replayed, mark)
	}
	var ackedTotal uint64
	for w := range outs {
		ackedTotal += uint64(len(outs[w].acked))
		for _, k := range outs[w].acked {
			if v, ok := re.Get(layout.Key{Lo: k}); !ok || v != k {
				t.Fatalf("acked key %#x = (%d, %v) after recovery", k, v, ok)
			}
		}
		for _, k := range outs[w].refused {
			if _, ok := re.Get(layout.Key{Lo: k}); ok {
				t.Fatalf("key %#x answered StatusDraining yet present after recovery", k)
			}
		}
	}
	if got := re.Len(); got != ackedTotal {
		t.Fatalf("recovered Len = %d, want %d acked keys", got, ackedTotal)
	}
}
