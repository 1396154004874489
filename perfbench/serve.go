package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"grouphash"
	"grouphash/internal/engine"
	"grouphash/internal/loadgen"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
	"grouphash/internal/stats"
	"grouphash/internal/trace"
)

// The oplog runs at the ghserver defaults: adaptive group commit every
// 100 µs or 64 KiB, segments preallocated to 4 MiB.
var oplogConfig = oplog.Config{SyncEvery: 100 * time.Microsecond, SyncBytes: 64 << 10, PreallocBytes: 4 << 20}

// The load generator: one process, a closed loop of two connections, each
// keeping one burst in flight, the way the repository's clients wait.
const conns = 2

// preloadBatch is the OpBatch frame size of the preload.
const preloadBatch = 256

// rounds is how many consecutive loadgen runs make up the measured
// window. A timing is the median over the rounds, so one disturbed
// stretch of a run moves it less; each round still has the thousand
// bursts a p99 needs.
const rounds = 8

// stage is one booted serving stack: a flagship store behind a server
// with an oplog, listening on loopback.
type stage struct {
	w      workload
	dir    string
	store  *grouphash.Store
	tracer *tracedEngine // nil when untraced
	sock   *connStats    // nil when untraced
	log    *oplog.Log
	srv    *server.Server
	served chan error
	addr   string
}

func newStore(w workload) (*grouphash.Store, error) {
	return grouphash.New(grouphash.Options{Capacity: w.capacity, Concurrent: true})
}

func (st *stage) oplogBase() string { return filepath.Join(st.dir, "oplog") }

// boot starts a server over a fresh store and oplog in dir.
func boot(w workload, dir string, traced bool) (*stage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stage{w: w, dir: dir, served: make(chan error, 1)}
	var err error
	if st.store, err = newStore(w); err != nil {
		return nil, err
	}
	if st.log, err = oplog.OpenConfig(st.oplogBase(), 1, oplogConfig); err != nil {
		return nil, fmt.Errorf("opening oplog: %w", err)
	}
	var eng engine.Engine = st.store
	if traced {
		st.tracer = &tracedEngine{Engine: st.store}
		eng = st.tracer
	}
	if st.srv, err = server.New(server.Config{Engine: eng, Oplog: st.log}); err != nil {
		st.log.Abort()
		return nil, err
	}
	st.store.RegisterSubstrateMetrics(st.srv.Registry(), "gh")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.log.Abort()
		return nil, err
	}
	st.addr = ln.Addr().String()
	if traced {
		st.sock = &connStats{}
		ln = &tracedListener{Listener: ln, st: st.sock}
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	// Abort only stops a server whose Serve has taken the listener.
	for !st.srv.Ready() {
		time.Sleep(10 * time.Microsecond)
	}
	return st, nil
}

// crash stops the server the way kill -9 would and abandons the oplog
// with only its fsynced prefix, as a power failure leaves it.
func (st *stage) crash() error {
	st.srv.Abort()
	serveErr := <-st.served
	synced, path := st.log.SyncedSize(), st.log.ActivePath()
	st.log.Abort()
	if serveErr != nil {
		return fmt.Errorf("serve: %w", serveErr)
	}
	return os.Truncate(path, synced)
}

// discard tears a stage down and deletes its files.
func (st *stage) discard() {
	st.srv.Abort()
	<-st.served
	st.log.Abort()
	os.RemoveAll(st.dir)
}

func (st *stage) loadConfig(seed int64) loadgen.Config {
	w := st.w
	return loadgen.Config{
		Addr: st.addr,
		Mix: trace.MixConfig{
			Records:    w.idBase(seed),
			Theta:      w.theta,
			Tenants:    w.tenants,
			ReadFrac:   w.read,
			UpdateFrac: w.update,
			InsertFrac: w.insert,
			Seed:       seed,
		},
		Conns: conns,
		Depth: w.depth,
		Batch: w.batch,
	}
}

// repeat calls f at least min times, then again while less than budget
// has passed since the first call, at most max times in all; it stops
// at the first error. A short step is repeated more, so the median of
// its times is as steady as a long step's.
func repeat(min, max int, budget time.Duration, f func() error) error {
	start := time.Now()
	for i := 0; i < max && (i < min || time.Since(start) < budget); i++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// setUp boots a stage and preloads it, repeatedly, keeping the last
// stage; it returns that stage and every set-up time in seconds.
func setUp(w workload, dir string, seed int64, traced bool) (*stage, []float64, error) {
	var times []float64
	var st *stage
	err := repeat(3, 31, 2*time.Second, func() error {
		if st != nil {
			st.discard()
		}
		runtime.GC() // no rep pays for collecting its predecessor
		t0 := time.Now()
		var err error
		if st, err = boot(w, filepath.Join(dir, fmt.Sprint("setup", len(times))), traced); err != nil {
			return err
		}
		if w.records > 0 {
			// A bulk load ships full batch frames, whatever shape the
			// measured traffic has.
			bulk := st.loadConfig(seed)
			bulk.Depth, bulk.Batch = preloadBatch, preloadBatch
			n, err := loadgen.Preload(bulk)
			if err == nil && n != w.records*uint64(w.tenants) {
				err = fmt.Errorf("preload acked %d of %d keys", n, w.records*uint64(w.tenants))
			}
			if err != nil {
				st.discard()
				st = nil
				return err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		if st != nil {
			st.discard()
		}
		return nil, nil, err
	}
	return st, times, nil
}

// servedRun is what one serving stage measured.
type servedRun struct {
	setup     []float64
	rounds    []loadgen.Result
	acked     uint64
	rtt       *stats.HistSnapshot // every round's bursts
	attempted uint64              // wire requests the server received in the window
	bytesItem float64
	rec       []recovery
	layers    *layerReading // nil when untraced
}

// roundMedian is the median over the rounds of f.
func (r servedRun) roundMedian(f func(loadgen.Result) float64) float64 {
	var xs []float64
	for _, res := range r.rounds {
		xs = append(xs, f(res))
	}
	return median(xs)
}

// windowFigures are the serving window's user-visible timings.
type windowFigures struct {
	kops, p50us, p99us float64
}

// figures reads the window: each timing is the median over the rounds,
// so one disturbed round, or the round an expansion stalls, moves it
// less.
func (r servedRun) figures() windowFigures {
	return windowFigures{
		kops:  r.roundMedian(kops),
		p50us: r.roundMedian(func(res loadgen.Result) float64 { return res.RTT.Quantile(0.50) / 1e3 }),
		p99us: r.roundMedian(func(res loadgen.Result) float64 { return res.RTT.Quantile(0.99) / 1e3 }),
	}
}

// layerReading holds the window's start and end readings of every
// layer counter the traced run attributes.
type layerReading struct {
	prom0, prom1 scrape
	eng0, eng1   engineCounts
	conn0, conn1 connCounts
	core0, core1 coreCounts
}

// coreCounts reads the flagship store's accessors.
type coreCounts struct {
	countPersists, fpSkips, expansions, stallNs, stripes uint64
}

func readCore(s *grouphash.Store) coreCounts {
	_, skips := s.FingerprintStats()
	return coreCounts{
		countPersists: s.CountPersists(),
		fpSkips:       skips,
		expansions:    s.Expansions(),
		stallNs:       s.ExpansionStallNanos(),
		stripes:       s.StripesMigrated(),
	}
}

// requests is the wire requests the server has received.
func requests(srv *server.Server) uint64 {
	m := srv.Stats()
	return m.Reads + m.Writes + m.Deletes + m.Others
}

// roundConfig is the load of measured round i of a window of n
// operations: a fresh stream per round, and for an insert-only workload
// a fresh id range, so no round repeats another's keys.
func (st *stage) roundConfig(seed int64, i int, n uint64) loadgen.Config {
	cfg := st.loadConfig(seed + int64(i))
	cfg.Ops = n / rounds
	if st.w.insert == 1 {
		// Each connection owns one tenant and inserts Ops/conns ids.
		cfg.Mix.Records = st.w.idBase(seed) + uint64(i)*cfg.Ops/conns
	}
	return cfg
}

// serve runs the serving stage: set up, warm up, measure the window in
// rounds, check the drained store, then, untraced, crash and recover it.
func serve(w workload, dir string, seed int64, window time.Duration, traced bool) (servedRun, error) {
	var r servedRun
	st, setup, err := setUp(w, dir, seed, traced)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.setup = setup
	defer os.RemoveAll(st.dir)
	if w.warmOps > 0 {
		warm := st.loadConfig(seed - 1)
		warm.Ops = w.warmOps
		if _, err := loadgen.Run(warm); err != nil {
			st.discard()
			return r, fmt.Errorf("warm-up: %w", err)
		}
	}

	var lr layerReading
	before, err := readRegistry(st.srv.Registry())
	if err != nil {
		st.discard()
		return r, err
	}
	requested := requests(st.srv)
	if traced {
		lr.eng0, lr.conn0, lr.core0 = st.tracer.snapshot(), st.sock.snapshot(), readCore(st.store)
	}
	r.rtt = &stats.HistSnapshot{}
	n := w.windowOps(window)
	for i := 0; i < rounds; i++ {
		res, err := loadgen.Run(st.roundConfig(seed, i, n))
		if err != nil {
			st.discard()
			return r, fmt.Errorf("load: %w", err)
		}
		if res.Drained {
			st.discard()
			return r, checkf("the server refused operations")
		}
		r.rounds = append(r.rounds, res)
		r.acked += res.Acked
		r.rtt.Merge(res.RTT)
	}
	// Let an online expansion the last insert started finish before any
	// reading: an empty Quiesce waits until nothing is moving.
	st.store.Quiesce(func() {})
	after, err := readRegistry(st.srv.Registry())
	if err != nil {
		st.discard()
		return r, err
	}
	if traced {
		lr.eng1, lr.conn1, lr.core1 = st.tracer.snapshot(), st.sock.snapshot(), readCore(st.store)
		lr.prom0, lr.prom1 = before, after
		r.layers = &lr
	}
	r.attempted = requests(st.srv) - requested
	if items := after["gh_store_items"]; items > 0 {
		r.bytesItem = after["gh_mem_allocated_bytes"] / items
	}
	if err := checkDrained(st.store, w.wantLen(n)); err != nil || traced {
		// Replay runs no wrapped layer, so a traced stage ends here and
		// the untraced one times recovery.
		st.discard()
		return r, err
	}
	r.rec, err = crashAndRecover(st)
	return r, err
}

// checkDrained checks a settled store against the load it acked: it
// holds exactly wantLen items and its structure is consistent.
func checkDrained(s *grouphash.Store, wantLen uint64) error {
	if n := s.Len(); n != wantLen {
		return checkf("the drained store holds %d items; the acked load implies %d", n, wantLen)
	}
	if v := s.CheckConsistency(); len(v) > 0 {
		return checkf("drained store inconsistent: %v", v)
	}
	return nil
}

// recovery is what one replay of the crashed oplog measured.
type recovery struct {
	total, replay, audit time.Duration
	replayed             int
}

// digest is an order-independent fingerprint of a store's contents.
type digest struct {
	n, sum uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// digestOf must not run concurrently with writers.
func digestOf(s *grouphash.Store) digest {
	var d digest
	s.Range(func(k grouphash.Key, v uint64) bool {
		d.n++
		d.sum += mix64(k.Lo ^ mix64(k.Hi^mix64(v)))
		return true
	})
	return d
}

// audit compares a recovered store against the digest and length taken
// before the crash, and checks its structure.
func audit(want digest, wantLen uint64, s *grouphash.Store) error {
	if n := s.Len(); n != wantLen {
		return fmt.Errorf("recovered %d items, want %d", n, wantLen)
	}
	if got := digestOf(s); got != want {
		return fmt.Errorf("recovered contents differ: digest %+v, want %+v", got, want)
	}
	if v := s.CheckConsistency(); len(v) > 0 {
		return fmt.Errorf("recovered store inconsistent: %v", v)
	}
	return nil
}

// crashAndRecover digests the drained store, crashes the stage, and
// repeatedly replays its oplog into a fresh store (settled with an empty
// Quiesce, as internal/chaos does) and audits the result. Every write
// was acked before the crash, so every write must come back. Timing
// starts once the crashed store's memory is collected, as a restarted
// process would start.
func crashAndRecover(st *stage) ([]recovery, error) {
	want, wantLen := digestOf(st.store), st.store.Len()
	if err := st.crash(); err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	st.store, st.tracer, st.srv = nil, nil, nil
	var reps []recovery
	err := repeat(3, 31, 8*time.Second, func() error {
		runtime.GC()
		var r recovery
		t0 := time.Now()
		fresh, err := newStore(st.w)
		if err != nil {
			return err
		}
		applied, _, err := fresh.ReplayOplog(st.oplogBase(), 0)
		if err != nil {
			return checkf("replay: %v", err)
		}
		fresh.Quiesce(func() {})
		ta := time.Now()
		r.replay, r.replayed = ta.Sub(t0), applied
		if err := audit(want, wantLen, fresh); err != nil {
			return checkf("%v", err)
		}
		r.audit = time.Since(ta)
		r.total = time.Since(t0)
		reps = append(reps, r)
		return nil
	})
	return reps, err
}

// recoverMedian is the median over the recovery reps of f, in seconds.
func recoverMedian(reps []recovery, f func(recovery) time.Duration) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, f(r).Seconds())
	}
	return median(xs)
}
