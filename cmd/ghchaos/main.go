// Command ghchaos is the real-process arm of the chaos harness: a
// supervisor re-executes its own binary as a child that recovers and
// serves exactly the way ghserver does (image + oplog replay through
// the engine seam, group-committed acks, aggressive background
// snapshots), and plays seeded internal/chaos fault schedules against
// it — SIGKILL at scheduled moments (mid-snapshot, mid-rotation,
// mid-group-commit or mid-batch, the scheduler decides), SIGTERM
// drains, power-failure garbage written where replay reads the live
// oplog segment's next record — while the supervisor drives it with
// chaos.Model's workers (inserts, deletes and overwrites) and audits
// every recovery with the same Model over the wire. The child audits
// its own structure after each recovery, which the wire cannot carry.
//
// The in-process harness (`make chaos-smoke`, the crash torture)
// composes more injector kinds (sticky fsync faults, power cuts at a
// snapshot's durable steps, torn-tail truncation, crashes mid-replay
// need in-process hooks); this command is the real-process half:
// `make torture` runs it across the (T, B) group-commit matrix,
// `make soak` across engines, and -duration turns it into an
// open-ended soak.
//
// Usage:
//
//	ghchaos -cycles 20 -engine pfht-l          # one schedule, then exit
//	ghchaos -duration 30m -engine grouphash    # soak until the clock runs out
//	ghchaos -capacity 4096 -sync-every 0 -sync-bytes 0 -cycles 24   # zero-length commit window
//
// Exits non-zero at the first contract violation; the failing seed and
// cycle are printed for exact reproduction.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"grouphash/internal/chaos"
	"grouphash/internal/client"
	"grouphash/internal/engine"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
)

func main() {
	var (
		cycles   = flag.Int("cycles", 20, "kill/restart cycles to run (ignored when -duration is set)")
		duration = flag.Duration("duration", 0, "soak mode: run cycles until this much wall clock has elapsed")
		eng      = flag.String("engine", "grouphash", "engine to serve (grouphash, pfht[-l], pathhash[-l], chained, linearprobe[-l])")
		capacity = flag.Uint64("capacity", 1<<16, "engine capacity (small values force online expansions on the flagship)")
		dir      = flag.String("dir", "", "state directory (default: a fresh temp dir, removed on success)")
		serve    = flag.Bool("serve", false, "internal: run as the server child process")
		addrFile = flag.String("addr-file", "", "internal: file the child publishes its address to")
		seed     = flag.Int64("seed", 1, "schedule seed (schedules derive from it deterministically)")
		syncT    = flag.Duration("sync-every", 100*time.Microsecond, "child oplog group-commit window: bounds the durability lag of unwaited writes, a waiting ack closes the window at once (0 = fsync as soon as a write is staged)")
		syncB    = flag.Int("sync-bytes", 64<<10, "child oplog byte trigger")
		prealloc = flag.Int64("prealloc", 0, "child oplog segment preallocation in bytes")
	)
	flag.Parse()
	lcfg := oplog.Config{SyncEvery: *syncT, SyncBytes: *syncB, PreallocBytes: *prealloc}
	spec := engine.Spec{Name: *eng, Capacity: *capacity}
	if *serve {
		child(*dir, *addrFile, spec, lcfg)
		return
	}
	log.SetPrefix("ghchaos: ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if _, err := engine.New(spec); err != nil {
		log.Fatal(err)
	}

	cleanup := false
	if *dir == "" {
		d, err := os.MkdirTemp("", "ghchaos-*")
		if err != nil {
			log.Fatal(err)
		}
		*dir = d
		cleanup = true
	}
	supervise(*dir, *cycles, *duration, *seed, spec, lcfg)
	if cleanup {
		os.RemoveAll(*dir)
	}
}

// child recovers through the engine seam exactly the way ghserver
// does — image + oplog replay — then serves with aggressive background
// snapshots so kills land mid-snapshot too.
func child(dir, addrFile string, spec engine.Spec, lcfg oplog.Config) {
	log.SetPrefix(fmt.Sprintf("child[%d]: ", os.Getpid()))
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	img := filepath.Join(dir, "store.pmfs")

	eng, lg, rec, err := engine.Restart(spec, img, filepath.Join(dir, "oplog"), lcfg)
	if err != nil {
		log.Fatal(err)
	}
	// The supervisor's audit reads keys and Len over the wire; the
	// structure it cannot see is checked here, once an empty Quiesce has
	// settled any expansion replay left migrating. A violation exits
	// non-zero before the address is published, which stops the run.
	eng.Quiesce(func() {})
	if bad := eng.CheckConsistency(); len(bad) != 0 {
		log.Fatalf("recovered %s is inconsistent: %v", spec.Name, bad)
	}
	log.Printf("recovered %s: mark=%d replayed=%d items=%d", spec.Name, rec.Mark, rec.Replayed, eng.Len())

	srv, err := server.New(server.Config{
		Engine:        eng,
		SnapshotPath:  img,
		SnapshotEvery: 25 * time.Millisecond,
		Oplog:         lg,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// Catch SIGTERM before the address is out, so a supervisor's drain
	// always reaches the handler.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		log.Fatal(err)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case <-sig:
		if err := srv.Drain(); err != nil {
			log.Fatalf("drain: %v", err)
		}
		<-serveErr
	}
}

func supervise(dir string, cycles int, soak time.Duration, seed int64, spec engine.Spec, lcfg oplog.Config) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b8b4567))
	model := chaos.NewModel(3)
	start := time.Now()
	grownKills := 0 // generations that died with their live segment past its first growth step

	runCycle := func(cycle int, ev chaos.Event) {
		proc, exited, addr := startChild(dir, spec, lcfg)
		audit(addr, model, cycle)

		// The schedule decides how long this generation lives (delays
		// rescaled from the in-process schedule to real-process time)
		// and how it dies: SIGTERM for drain events (the graceful path
		// must also preserve everything), SIGKILL for every other class
		// — with power-failure garbage for kill+tear, and the model's
		// insert-only filler flooding the child for expand.
		life := 30*time.Millisecond + ev.Delay*5 + time.Duration(rng.Intn(40))*time.Millisecond
		stop := make(chan struct{})
		loadErr := make(chan error, 1)
		go func() { loadErr <- model.Load(addr, stop, ev.Kind) }()
		time.Sleep(life)
		if ev.Kind == chaos.KindDrain {
			proc.Signal(syscall.SIGTERM)
			if err := <-exited; err != nil {
				log.Fatalf("cycle %d: drain: child %v", cycle, err)
			}
		} else {
			if err := proc.Kill(); err != nil {
				log.Fatalf("cycle %d: kill: %v", cycle, err)
			}
			<-exited
		}
		close(stop)
		if err := <-loadErr; err != nil {
			log.Fatalf("cycle %d: %v", cycle, err)
		}
		if lcfg.PreallocBytes > 0 {
			if fi, err := os.Stat(liveSegment(dir)); err == nil {
				log.Printf("cycle %d: live segment is %d bytes (%d-byte growth steps)", cycle, fi.Size(), lcfg.PreallocBytes)
				if fi.Size() > lcfg.PreallocBytes {
					grownKills++
				}
			}
		}
		if ev.Kind == chaos.KindKillTear {
			tearGarbage(dir, rng)
		}
	}

	cycle := 0
	for sched := chaos.NewSchedule(seed, cycles); ; sched = chaos.NewSchedule(seed+int64(cycle), cycles) {
		for _, ev := range sched {
			log.Printf("cycle %d: %s", cycle, ev)
			runCycle(cycle, ev)
			cycle++
			if soak > 0 && time.Since(start) > soak {
				break
			}
		}
		if soak == 0 || time.Since(start) > soak {
			break
		}
	}

	// One last recovery audits the final kill, then a clean drain and
	// one more audit prove the graceful path preserved everything too.
	var present uint64
	for i := 0; i < 2; i++ {
		proc, exited, addr := startChild(dir, spec, lcfg)
		present = audit(addr, model, cycle+i)
		proc.Signal(syscall.SIGTERM)
		if err := <-exited; err != nil {
			log.Fatalf("final drain: child %v", err)
		}
	}
	if lcfg.PreallocBytes > 0 {
		log.Printf("%d of %d generations died with their live segment grown past its first %d-byte step", grownKills, cycle, lcfg.PreallocBytes)
	}
	log.Printf("PASS: engine=%s seed=%d %d cycles, %d present keys verified exactly-once, %d ops refused for lack of room, in %s",
		spec.Name, seed, cycle, present, model.Full(), time.Since(start).Round(time.Millisecond))
}

// audit checks a freshly recovered child against the model over the
// wire — every tracked key in MGet lookups, plus Len — and returns the
// child's item count.
func audit(addr string, model *chaos.Model, cycle int) uint64 {
	c, err := client.Dial(addr, 2*time.Second)
	if err != nil {
		log.Fatalf("audit %d: dial: %v", cycle, err)
	}
	defer c.Close()
	n, err := c.Len()
	if err != nil {
		log.Fatalf("audit %d: len: %v", cycle, err)
	}
	if err := model.Audit(c.MGet, n); err != nil {
		log.Fatalf("audit %d: %v", cycle, err)
	}
	log.Printf("cycle %d verified: %d keys present, len matches", cycle, n)
	return n
}

// tearGarbage simulates the power-failure tail damage an external
// process CAN inflict: garbage where the next record would start, the
// first all-zero record slot after the live segment's header (a real
// record is never all zero). Appending would land past a zero-filled
// growth step, where replay never reads. (Truncation is the in-process
// harness's job — from outside, the acked-durable boundary inside the
// segment is unknowable, so cutting could delete acked writes and fake
// a violation.)
func tearGarbage(dir string, rng *rand.Rand) {
	seg := liveSegment(dir)
	if seg == "" {
		return
	}
	b, err := os.ReadFile(seg)
	if err != nil {
		return
	}
	var zero [oplog.RecordLen]byte
	off := oplog.SegHeaderLen
	for off+oplog.RecordLen <= len(b) && !bytes.Equal(b[off:off+oplog.RecordLen], zero[:]) {
		off += oplog.RecordLen
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	garbage := make([]byte, 1+rng.Intn(64))
	rng.Read(garbage)
	f.WriteAt(garbage, int64(off))
	log.Printf("tore tail: %d garbage bytes at offset %d of %s", len(garbage), off, filepath.Base(seg))
}

// liveSegment names the newest oplog segment in dir ("" if none).
func liveSegment(dir string) string {
	segs, err := filepath.Glob(filepath.Join(dir, "oplog.*"))
	if err != nil || len(segs) == 0 {
		return ""
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// startChild launches the serve-mode child with the run's engine and
// oplog configuration and waits for its address. exited yields the
// child's exit status once it ends; a child that exits before serving
// (its recovery failed, or its structure did) stops the run.
func startChild(dir string, spec engine.Spec, lcfg oplog.Config) (*os.Process, <-chan error, string) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-serve", "-dir", dir, "-addr-file", addrFile,
		"-engine", spec.Name,
		"-capacity", fmt.Sprint(spec.Capacity),
		"-sync-every", lcfg.SyncEvery.String(),
		"-sync-bytes", fmt.Sprint(lcfg.SyncBytes),
		"-prealloc", fmt.Sprint(lcfg.PreallocBytes))
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("starting child: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd.Process, exited, string(b)
		}
		select {
		case err := <-exited:
			log.Fatalf("child exited before serving: %v", err)
		case <-deadline:
			cmd.Process.Kill()
			log.Fatal("child never published its address")
		case <-time.After(5 * time.Millisecond):
		}
	}
}
