// Command ghserver serves a storage engine over TCP: by default the
// concurrent native-backend group-hash table, or — via -engine — any
// of the paper's comparison schemes behind the same wire protocol,
// with group-committed operation logging, periodic background
// snapshots and a graceful drain on SIGINT/SIGTERM that refuses late
// writes, saves a final image and seals the log.
//
// Usage:
//
//	ghserver -addr :4777 -capacity 1048576 \
//	    -image /var/lib/gh/store.pmfs -oplog /var/lib/gh/oplog
//	ghserver -engine pathhash -capacity 65536 -image /tmp/path.pmfs
//
// Durability: with -oplog, acked means durable — every mutating
// request is appended to the operation log and its response is held
// until a group commit carries its LSN past the durable watermark. A
// commit window closes as soon as a connection waits on it, so an ack
// waits for at most the fsync in flight plus its own;
// -oplog-sync-every / -oplog-sync-bytes (fsync when the window ages
// out or enough bytes stage) only bound how long a write nobody waits
// on stays volatile. They are not an ack-latency knob: on an idle
// process a sub-millisecond timer rounds up to 1 ms anyway.
// -oplog-sync-every 0 is a zero-length window: fsync as soon as a
// write is staged. Snapshots bound the log's length, and start-up
// recovery is image + replay: after any crash, power failure included,
// every acked write is back, exactly once. Without -oplog the server
// degrades to snapshots only, where a crash loses acked writes since
// the last image. See DESIGN.md §6.
//
// Observability: -metrics-addr serves every layer's metrics registry
// at GET /metrics (Prometheus text exposition) and readiness at
// /healthz; the wire protocol's stats op returns the same exposition.
// A drain logs a one-line summary of connections, writes, reads and
// refused writes. See DESIGN.md §8.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grouphash/internal/engine"
	"grouphash/internal/oplog"
	"grouphash/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":4777", "TCP listen address")
		engName  = flag.String("engine", "grouphash", fmt.Sprintf("storage engine: %s (grouphash is the paper's scheme and expands online; the comparison schemes are fixed-size; pfht/pathhash/linearprobe accept an -l suffix for the undo-WAL variants)", strings.Join(engine.Names(), "|")))
		capacity = flag.Uint64("capacity", 1<<20, "initial item capacity (the grouphash engine expands online when it fills; comparison engines allocate ~2x headroom in cells and stay fixed)")
		group    = flag.Uint64("group-size", 0, "cells per group (grouphash only; 0 = the paper's 256)")
		seed     = flag.Uint64("seed", 0, "hash-function seed (must match across restarts of the same image)")
		image    = flag.String("image", "", "pmfs image path: loaded at start if present, snapshot target while serving")
		logBase  = flag.String("oplog", "", "operation log base path: acked writes are fsynced here before the ack and replayed over the image at start (\"\" = snapshots only; a crash then loses acked writes since the last image)")
		syncT    = flag.Duration("oplog-sync-every", 100*time.Microsecond, "group-commit window: fsync at most this long after a write nobody waits on was staged; a waiting ack closes the window at once (0 = fsync as soon as a write is staged)")
		syncB    = flag.Int("oplog-sync-bytes", 64<<10, "close the group-commit window once this many staged bytes accumulate, even with no ack waiting (0 = timer only)")
		prealloc = flag.Int64("oplog-prealloc", 4<<20, "grow log segments in zero-filled steps of this size: the commit that crosses a step boundary is a full fsync, every other one a data-only fdatasync (0 = grow by each write, every commit a full fsync)")
		every    = flag.Duration("snapshot-every", 30*time.Second, "background snapshot period (0 = only the final drain snapshot)")
		metrics  = flag.String("metrics-addr", "", "HTTP listen address serving GET /metrics (Prometheus scrape) and /healthz (readiness; 503 once draining); \"\" = off")
	)
	flag.Parse()
	log.SetPrefix("ghserver: ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	spec := engine.Spec{
		Name:      *engName,
		Capacity:  *capacity,
		GroupSize: *group,
		Seed:      *seed,
	}
	eng, lg, rec, err := engine.Restart(spec, *image, *logBase, oplog.Config{
		SyncEvery:     *syncT,
		SyncBytes:     *syncB,
		PreallocBytes: *prealloc,
	})
	if err != nil {
		log.Fatal(err)
	}
	if rec.Loaded {
		log.Printf("loaded %d items from %s (engine %s, oplog mark %d)", rec.Items, *image, eng.Name(), rec.Mark)
	} else {
		log.Printf("engine %s (capacity %d)", eng.Name(), *capacity)
	}
	switch {
	case lg != nil && rec.Replayed > 0:
		log.Printf("replayed %d acked writes from %s (through LSN %d) in %v (%.0f records/s); %d items now",
			rec.Replayed, *logBase, lg.LastLSN(), rec.ReplayTime.Round(time.Microsecond),
			float64(rec.Replayed)/rec.ReplayTime.Seconds(), eng.Len())
	case lg != nil:
		log.Printf("oplog %s: nothing to replay past mark %d", *logBase, rec.Mark)
	case rec.Mark != 0:
		log.Printf("WARNING: image was written with an oplog (mark %d) but -oplog is unset; acked writes past the image are being ignored", rec.Mark)
	}

	srv, err := server.New(server.Config{
		Engine:        eng,
		SnapshotPath:  *image,
		SnapshotEvery: *every,
		Oplog:         lg,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	var msrv *http.Server
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Registry())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if srv.Ready() {
				w.Write([]byte("ok\n"))
				return
			}
			http.Error(w, "draining", http.StatusServiceUnavailable)
		})
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listener on %s: %v", *metrics, err)
		}
		msrv = &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case got := <-sig:
		log.Printf("%s: draining", got)
		if err := srv.Drain(); err != nil {
			log.Fatalf("drain: %v", err)
		}
		<-serveErr
		if msrv != nil {
			// Kept up through the drain so /healthz reports 503 to load
			// balancers while connections wind down; closed after.
			msrv.Close()
		}
	}
}
