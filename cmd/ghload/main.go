// Command ghload is the workload lab's command-line front end: it
// preloads a (possibly multi-tenant) keyspace and drives an
// internal/trace Mix over pipelined or batched connections against a
// ghserver, reporting achieved throughput and latency percentiles —
// overall and per tenant. The storage engine is the server's choice
// (ghserver -engine); the wire protocol is identical for all of them,
// so the same ghload invocation compares schemes by pointing at
// differently-booted servers.
//
// The classic YCSB letters set the operation mix; the lab knobs shape
// everything else:
//
//	-zipf-theta 1.2            key skew (0 = uniform; 0.99 = YCSB default)
//	-tenants 8                 isolated per-tenant key prefixes + metrics
//	-value-dist web            value-size mixture (fixed, web, "1:90,16:10")
//	-flash-crowd 10000:5000:40000:0.3
//	                           hot-key spike: start:ramp:hold ops, peak share
//	-duration 30s              time-bounded run (instead of -ops)
//
// Example — a flash crowd where one key ramps to 30% of traffic:
//
//	ghload -addr 127.0.0.1:4777 -workload a -records 100000 \
//	    -duration 30s -flash-crowd 100000:50000:400000:0.30
//
// A server drain mid-run is handled gracefully: workers finish their
// in-flight burst and only acked operations are counted — the number a
// restarted server must still hold (exit status 3 marks such a run).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"grouphash/internal/loadgen"
	"grouphash/internal/stats"
	"grouphash/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4777", "server address")
		workload  = flag.String("workload", "b", "YCSB mix letter: a, b, c, d or f")
		records   = flag.Uint64("records", 100_000, "keys preloaded per tenant before the mix runs")
		ops       = flag.Uint64("ops", 1_000_000, "total steps across all connections (ignored when -duration is set)")
		duration  = flag.Duration("duration", 0, "run for a wall-clock window instead of an op budget (workers drain in-flight bursts at the deadline)")
		conns     = flag.Int("conns", 4, "concurrent connections (one goroutine each)")
		depth     = flag.Int("depth", 64, "pipelined operations per burst")
		batch     = flag.Int("batch", 0, "send bursts as explicit OpBatch frames of this many sub-ops (0 = pipelined single frames); preload uses the same framing")
		seed      = flag.Int64("seed", 1, "workload seed (each connection derives its own)")
		skipLoad  = flag.Bool("skip-load", false, "skip the preload phase (server already holds the records)")
		theta     = flag.Float64("zipf-theta", 0.99, "Zipfian skew over existing keys (0 = uniform)")
		tenants   = flag.Int("tenants", 1, "tenant count: isolated key prefixes, per-tenant throughput/latency")
		valueDist = flag.String("value-dist", "fixed", `value-size mixture: "fixed", "web", or "span:weight,..." (records span that many keys)`)
		flash     = flag.String("flash-crowd", "", `hot-key spike "start:ramp:hold:peak" — at op start, one key ramps over ramp ops to peak share of traffic, holds for hold ops, ramps down`)
		dumpProm  = flag.Bool("metrics-dump", false, "print the client-side Prometheus exposition (per-tenant series) after the run")
	)
	flag.Parse()
	log.SetPrefix("ghload: ")
	log.SetFlags(0)
	if len(*workload) != 1 {
		log.Fatal("-workload must be a single letter")
	}
	read, update, insert, rmw, err := trace.MixFracs((*workload)[0])
	if err != nil {
		log.Fatal(err)
	}
	values, err := trace.ParseValueDist(*valueDist)
	if err != nil {
		log.Fatal(err)
	}
	mix := trace.MixConfig{
		Records:    *records,
		Theta:      *theta,
		Tenants:    *tenants,
		ReadFrac:   read,
		UpdateFrac: update,
		InsertFrac: insert,
		RMWFrac:    rmw,
		Values:     values,
		Seed:       *seed,
		Flash:      parseFlash(*flash),
	}
	if _, err := trace.NewMix(mix); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ghload: addr=%s workload=YCSB-%s records=%d tenants=%d theta=%g value-dist=%s conns=%d depth=%d batch=%d",
		*addr, *workload, *records, *tenants, *theta, values, *conns, *depth, *batch)
	if *duration > 0 {
		fmt.Printf(" duration=%v\n", *duration)
	} else {
		fmt.Printf(" ops=%d\n", *ops)
	}

	cfg := loadgen.Config{
		Addr:  *addr,
		Mix:   mix,
		Conns: *conns,
		Depth: *depth,
		Batch: *batch,
	}
	if !*skipLoad {
		start := time.Now()
		loaded, err := loadgen.Preload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		fmt.Printf("load:  %d keys in %.2fs (%.0f ops/s)\n",
			loaded, dur.Seconds(), float64(loaded)/dur.Seconds())
	}

	reg := stats.NewRegistry()
	cfg.Registry = reg
	if *duration > 0 {
		cfg.Duration = *duration
	} else {
		cfg.Ops = *ops
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run:   %d steps, %d wire ops acked in %.2fs (%.0f ops/s)\n",
		res.Steps, res.Acked, res.Wall.Seconds(), float64(res.Acked)/res.Wall.Seconds())
	us := func(h *stats.HistSnapshot, q float64) float64 { return h.Quantile(q) / 1e3 }
	fmt.Printf("batch RTT (%d batches): p50=%.0fµs p90=%.0fµs p99=%.0fµs max=%.0fµs mean=%.0fµs\n",
		res.RTT.Count, us(res.RTT, 0.5), us(res.RTT, 0.9), us(res.RTT, 0.99), res.RTT.Max()/1e3, res.RTT.Mean()/1e3)
	if *tenants > 1 {
		for _, tr := range res.Tenants {
			share := float64(tr.Acked) / float64(res.Acked) * 100
			fmt.Printf("tenant %d: %d ops (%.1f%%) p50=%.0fµs p99=%.0fµs\n",
				tr.Tenant, tr.Acked, share, us(tr.RTT, 0.5), us(tr.RTT, 0.99))
		}
	}
	if *dumpProm {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if res.Drained {
		fmt.Println("ghload: server drained mid-run; counts above cover acked operations only")
		os.Exit(3)
	}
}

// parseFlash parses the -flash-crowd spec "start:ramp:hold:peak".
func parseFlash(spec string) *trace.FlashCrowd {
	if spec == "" {
		return nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		log.Fatalf(`-flash-crowd %q: want "start:ramp:hold:peak"`, spec)
	}
	nums := make([]uint64, 3)
	for i := 0; i < 3; i++ {
		n, err := strconv.ParseUint(parts[i], 10, 64)
		if err != nil {
			log.Fatalf("-flash-crowd %q: %v", spec, err)
		}
		nums[i] = n
	}
	peak, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		log.Fatalf("-flash-crowd %q: %v", spec, err)
	}
	return &trace.FlashCrowd{Start: nums[0], Ramp: nums[1], Hold: nums[2], Peak: peak}
}
