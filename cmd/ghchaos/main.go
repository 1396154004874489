// Command ghchaos is the real-process arm of the chaos matrix: a
// supervisor re-executes its own binary as a child that recovers and
// serves exactly the way ghserver does (image + oplog replay through
// the engine seam, group-committed acks, aggressive background
// snapshots), and plays seeded internal/chaos fault schedules against
// it — SIGKILL at scheduled moments (mid-snapshot, mid-rotation,
// mid-group-commit or mid-batch, the scheduler decides), SIGTERM
// drains, power-failure garbage appended to the live oplog segment —
// while a supervisor-side model audits every acked insert for
// exactly-once survival across recoveries.
//
// The in-process matrix (`make chaos-smoke`) composes more injector
// kinds (sticky fsync faults, on-demand snapshots, torn-tail
// truncation need in-process hooks); this command is the real-process
// half: `make torture` runs it across the (T, B) group-commit matrix,
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
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
	"grouphash/internal/trace"
	"grouphash/internal/wire"
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
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		log.Fatal(err)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
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

// kstate is a key's supervisor-side model state.
type kstate int

const (
	acked   kstate = iota // server acked the insert: present, exactly once
	tainted               // batch died unacked: absent, or present exactly once
)

func supervise(dir string, cycles int, soak time.Duration, seed int64, spec engine.Spec, lcfg oplog.Config) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b8b4567))
	keys := make(map[uint64]kstate)
	nextKey := uint64(1)
	start := time.Now()
	full := false
	grownKills := 0 // generations that died with their live segment past its first growth step

	runCycle := func(cycle int, ev chaos.Event) {
		proc, addr := startChild(dir, spec, lcfg)
		verify(addr, keys, cycle)

		// Mixed load: tracked insert bursts (alternating pipelined and
		// OpBatch framing) interleaved with Zipfian reads over
		// everything inserted so far — kills land on a realistic
		// read/write mix, and reads of a freshly recovered tail
		// exercise the cold paths too.
		const batch = 64
		c, err := client.Dial(addr, 2*time.Second)
		if err != nil {
			log.Fatalf("cycle %d: dial: %v", cycle, err)
		}
		// The schedule decides how long this generation lives. Delays
		// are rescaled from the in-process schedule to real-process
		// time; the jitter is drawn before the load goroutine starts,
		// because that goroutine owns rng until loadDone.
		life := 30*time.Millisecond + ev.Delay*5 + time.Duration(rng.Intn(40))*time.Millisecond
		loadDone := make(chan struct{})
		go func() {
			defer close(loadDone)
			for useBatch := false; ; useBatch = !useBatch {
				if full {
					// Fixed-capacity engine filled up: keep the chaos
					// alive on reads alone.
					if !readBurst(c, nextKey, batch, rng.Int63()) {
						return
					}
					continue
				}
				reqs := make([]wire.Request, batch)
				base := nextKey
				for j := range reqs {
					k := base + uint64(j)
					reqs[j] = wire.Request{Op: wire.OpInsert, Key: layout.Key{Lo: k}, Value: k * 3}
				}
				nextKey += batch
				var resps []wire.Response
				var err error
				if useBatch {
					resps, err = c.DoBatch(reqs)
				} else {
					resps, err = c.Do(reqs)
				}
				if err != nil {
					for j := range reqs {
						keys[base+uint64(j)] = tainted
					}
					return
				}
				for j, r := range resps {
					switch r.Status {
					case wire.StatusOK:
						keys[base+uint64(j)] = acked
					case wire.StatusFull:
						delete(keys, base+uint64(j))
						full = true
					case wire.StatusDraining:
						delete(keys, base+uint64(j))
						return
					default:
						log.Fatalf("cycle %d: insert status %d", cycle, r.Status)
					}
				}
				if nextKey > 256 && !readBurst(c, nextKey, batch, rng.Int63()) {
					return
				}
			}
		}()

		// The schedule also decides how this generation dies: SIGTERM
		// for drain events (the graceful path must also preserve
		// everything), SIGKILL for every crash class — with
		// power-failure garbage appended to the live segment for
		// kill+tear.
		time.Sleep(life)
		if ev.Kind == chaos.KindDrain {
			proc.Signal(syscall.SIGTERM)
		} else if err := proc.Kill(); err != nil {
			log.Fatalf("cycle %d: kill: %v", cycle, err)
		}
		proc.Wait()
		<-loadDone
		c.Close()
		if lcfg.PreallocBytes > 0 {
			if fi, err := os.Stat(liveSegment(dir)); err == nil {
				log.Printf("cycle %d: live segment is %d bytes (%d-byte growth steps)", cycle, fi.Size(), lcfg.PreallocBytes)
				if fi.Size() > lcfg.PreallocBytes {
					grownKills++
				}
			}
		}
		if ev.Kind == chaos.KindKillTear {
			appendGarbage(dir, rng)
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
	proc, addr := startChild(dir, spec, lcfg)
	verify(addr, keys, cycle)
	proc.Signal(syscall.SIGTERM)
	proc.Wait()
	proc, addr = startChild(dir, spec, lcfg)
	verify(addr, keys, cycle+1)
	proc.Signal(syscall.SIGTERM)
	proc.Wait()

	n := 0
	for _, st := range keys {
		if st == acked {
			n++
		}
	}
	if lcfg.PreallocBytes > 0 {
		log.Printf("%d of %d generations died with their live segment grown past its first %d-byte step", grownKills, cycle, lcfg.PreallocBytes)
	}
	log.Printf("PASS: engine=%s seed=%d %d cycles, %d acked writes verified exactly-once, in %s",
		spec.Name, seed, cycle, n, time.Since(start).Round(time.Millisecond))
}

// readBurst sends one pipelined burst of Zipfian-skewed reads over the
// inserted range; returns false when the connection died under it.
func readBurst(c *client.Client, maxKey uint64, n int, seed int64) bool {
	if maxKey < 4 {
		return true
	}
	z := trace.NewZipfian(seed, maxKey-1, 0.99)
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpGet, Key: layout.Key{Lo: z.Next() + 1}}
	}
	_, err := c.Do(reqs)
	return err == nil
}

// appendGarbage simulates the power-failure tail damage an external
// process CAN inflict: trailing garbage on the newest oplog segment.
// (Truncation is the in-process matrix's job — from outside, the
// acked-durable boundary inside the segment is unknowable, so cutting
// could delete acked writes and fake a violation.)
func appendGarbage(dir string, rng *rand.Rand) {
	seg := liveSegment(dir)
	if seg == "" {
		return
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return
	}
	defer f.Close()
	garbage := make([]byte, 1+rng.Intn(64))
	rng.Read(garbage)
	f.Write(garbage)
	log.Printf("tore tail: %d garbage bytes onto %s", len(garbage), filepath.Base(seg))
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
// oplog configuration and waits for its address.
func startChild(dir string, spec engine.Spec, lcfg oplog.Config) (*os.Process, string) {
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
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd.Process, string(b)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			log.Fatal("child never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify audits a freshly recovered child against the model: acked
// keys present with their value, tainted keys present at most once or
// gone (their fate is then pinned for the rest of the run), and Len
// equal to the distinct present keys — the exactly-once check.
func verify(addr string, keys map[uint64]kstate, cycle int) {
	c, err := client.Dial(addr, 2*time.Second)
	if err != nil {
		log.Fatalf("verify %d: dial: %v", cycle, err)
	}
	defer c.Close()
	const batch = 512
	all := make([]uint64, 0, len(keys))
	for k := range keys {
		all = append(all, k)
	}
	present := uint64(0)
	for off := 0; off < len(all); off += batch {
		end := off + batch
		if end > len(all) {
			end = len(all)
		}
		reqs := make([]wire.Request, 0, end-off)
		for _, k := range all[off:end] {
			reqs = append(reqs, wire.Request{Op: wire.OpGet, Key: layout.Key{Lo: k}})
		}
		resps, err := c.Do(reqs)
		if err != nil {
			log.Fatalf("verify %d: %v", cycle, err)
		}
		for i, r := range resps {
			k := all[off+i]
			switch r.Status {
			case wire.StatusOK:
				if r.Value != k*3 {
					log.Fatalf("verify %d: key %d has value %d, want %d", cycle, k, r.Value, k*3)
				}
				present++
				keys[k] = acked // durable now, whatever its batch's fate was
			case wire.StatusNotFound:
				if keys[k] == acked {
					log.Fatalf("verify %d: ACKED WRITE LOST: key %d", cycle, k)
				}
				delete(keys, k) // unacked and gone: out of the model
			default:
				log.Fatalf("verify %d: get status %d", cycle, r.Status)
			}
		}
	}
	n, err := c.Len()
	if err != nil {
		log.Fatalf("verify %d: len: %v", cycle, err)
	}
	if n != present {
		log.Fatalf("verify %d: server Len=%d but %d distinct keys are present — a replayed write was applied twice", cycle, n, present)
	}
	log.Printf("cycle %d verified: %d keys present, len matches", cycle, present)
}
