// Package loadgen is the workload lab's driver: it preloads a tenant
// keyspace and pushes an internal/trace Mix (tunable Zipfian skew,
// flash crowds, value-size mixtures, read-modify-write, per-tenant
// prefixes) through pipelined or batched connections against any
// ghserver-compatible address, counting exactly the operations the
// server acked.
//
// It exists as a package (rather than logic inside cmd/ghload) so the
// in-process tests can pin the two contracts a command-line run can't:
// preload honors the batch setting, and a server drain mid-burst
// counts the acked prefix of the straddling burst and nothing more.
package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/client"
	"grouphash/internal/stats"
	"grouphash/internal/trace"
	"grouphash/internal/wire"
)

// Config parameterises a load run against one server address.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Mix is the workload shape (records, skew, tenants, fractions,
	// flash crowd, value mixture, seed). Each connection derives its
	// own generator seed from Mix.Seed.
	Mix trace.MixConfig
	// Ops bounds the run by logical steps across all connections
	// (0 = unbounded; then Duration must be set).
	Ops uint64
	// Duration bounds the run by wall time: workers finish their
	// in-flight burst at the deadline, never abandoning sent
	// operations (0 = op-bounded only).
	Duration time.Duration
	// Conns is the number of connections (one worker goroutine each).
	Conns int
	// Depth is the minimum wire operations per burst; a burst is cut
	// at a step boundary, so spans and RMW pairs never straddle two
	// bursts.
	Depth int
	// Batch > 0 ships bursts as explicit OpBatch frames of that many
	// sub-ops; 0 ships pipelined single frames. Preload honors this
	// setting too.
	Batch int
	// Registry optionally receives per-tenant series
	// (ghload_tenant_ops_total, ghload_tenant_rtt_seconds). Register
	// at most one Run per Registry — series names collide otherwise.
	Registry *stats.Registry
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// TenantResult is one tenant's slice of a run.
type TenantResult struct {
	// Tenant is the tenant index.
	Tenant int
	// Acked counts wire operations the server acknowledged for this
	// tenant.
	Acked uint64
	// RTT is the tenant's burst round-trip distribution (ns).
	RTT *stats.HistSnapshot
}

// Result summarises a run.
type Result struct {
	// Acked counts wire operations the server acknowledged (StatusOK,
	// or StatusNotFound for reads of absent chunks). Operations
	// refused with StatusDraining are NOT counted: Acked is exactly
	// the number a restarted server must still account for.
	Acked uint64
	// Steps counts completed logical workload steps.
	Steps uint64
	// Drained reports the server began shutting down mid-run; the
	// counts cover the acked prefix.
	Drained bool
	// Wall is the measured run time.
	Wall time.Duration
	// RTT is the burst round-trip distribution across all
	// connections (ns).
	RTT *stats.HistSnapshot
	// Tenants holds the per-tenant split.
	Tenants []TenantResult
}

// tenantMetrics is the shared per-tenant accounting — lock-free so
// workers on different connections attribute without a mutex.
type tenantMetrics struct {
	ops atomic.Uint64
	rtt stats.Histogram
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// send ships one burst: pipelined single frames by default, explicit
// OpBatch frames when batch > 0.
func send(c *client.Client, reqs []wire.Request, batch int) ([]wire.Response, error) {
	if batch > 0 {
		return c.DoBatchN(reqs, batch)
	}
	return c.Do(reqs)
}

// Preload populates the tenant keyspace: every chunk of every record
// (ids 1..Mix.Records per tenant, spans per the value mixture) is put
// with value = record id. The id range of each tenant is split across
// Conns connections, and bursts travel exactly as the run's will —
// batched when Batch is set, pipelined singles otherwise. Returns the
// acked key count; any refusal is an error.
func Preload(cfg Config) (uint64, error) {
	m, err := trace.NewMix(cfg.Mix) // validate + normalise (value dist defaulting)
	if err != nil {
		return 0, err
	}
	mix := m.Config()
	if cfg.Conns < 1 || cfg.Depth < 1 {
		return 0, errors.New("loadgen: need Conns >= 1 and Depth >= 1")
	}
	var wg sync.WaitGroup
	var total atomic.Uint64
	errc := make(chan error, cfg.Conns)
	per := mix.Records / uint64(cfg.Conns)
	for w := 0; w < cfg.Conns; w++ {
		lo := uint64(w)*per + 1
		hi := lo + per - 1
		if w == cfg.Conns-1 {
			hi = mix.Records
		}
		if hi < lo {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			c, err := client.Dial(cfg.Addr, dialTimeout)
			if err != nil {
				errc <- fmt.Errorf("loadgen: preload dial: %w", err)
				return
			}
			defer c.Close()
			var acked uint64
			reqs := make([]wire.Request, 0, cfg.Depth+mix.Values.MaxSpan())
			flush := func() error {
				if len(reqs) == 0 {
					return nil
				}
				resps, err := send(c, reqs, cfg.Batch)
				if err != nil {
					return fmt.Errorf("loadgen: preload send: %w", err)
				}
				for _, r := range resps {
					if r.Status != wire.StatusOK {
						return fmt.Errorf("loadgen: preload refused: %s", client.StatusErr(r.Status))
					}
					acked++
				}
				reqs = reqs[:0]
				return nil
			}
			for t := 0; t < mix.Tenants; t++ {
				for id := lo; id <= hi; id++ {
					span := mix.Values.SpanFor(t, id)
					for chunk := 0; chunk < span; chunk++ {
						reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: trace.MixKey(t, id, chunk), Value: id})
					}
					if len(reqs) >= cfg.Depth {
						if err := flush(); err != nil {
							errc <- err
							return
						}
					}
				}
			}
			if err := flush(); err != nil {
				errc <- err
				return
			}
			total.Add(acked)
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return total.Load(), err
	default:
		return total.Load(), nil
	}
}

// Run drives the mix. Each connection owns the tenants congruent to
// its index (mod Conns) and rotates through them burst by burst, so
// every burst is single-tenant and its round trip attributes exactly.
// The run ends when the step budget is spent, the deadline passes
// (workers drain their in-flight burst — sent operations are always
// awaited and their acks counted), or the server begins draining.
func Run(cfg Config) (Result, error) {
	if cfg.Conns < 1 || cfg.Depth < 1 {
		return Result{}, errors.New("loadgen: need Conns >= 1 and Depth >= 1")
	}
	if cfg.Ops == 0 && cfg.Duration == 0 {
		return Result{}, errors.New("loadgen: need an Ops budget or a Duration")
	}
	if _, err := trace.NewMix(cfg.Mix); err != nil {
		return Result{}, err
	}

	tenants := make([]*tenantMetrics, cfg.Mix.Tenants)
	for t := range tenants {
		tenants[t] = &tenantMetrics{}
	}
	if cfg.Registry != nil {
		for t := range tenants {
			tm := tenants[t]
			label := stats.Label("tenant", fmt.Sprint(t))
			cfg.Registry.RegisterCounter("ghload_tenant_ops_total", label,
				"Acked wire operations per tenant.", tm.ops.Load)
			cfg.Registry.RegisterHistogram("ghload_tenant_rtt_seconds", label,
				"Burst round-trip time per tenant.", 1e-9, &tm.rtt)
		}
	}

	rtt := &stats.Histogram{}
	var (
		wg      sync.WaitGroup
		acked   atomic.Uint64
		steps   atomic.Uint64
		drained atomic.Bool
		errc    = make(chan error, cfg.Conns)
	)
	perConn := uint64(0)
	if cfg.Ops > 0 {
		perConn = cfg.Ops / uint64(cfg.Conns)
		if perConn == 0 {
			perConn = 1
		}
	}
	var deadline time.Time
	start := time.Now()
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(cfg.Addr, dialTimeout)
			if err != nil {
				errc <- fmt.Errorf("loadgen: dial: %w", err)
				return
			}
			defer c.Close()
			mixCfg := cfg.Mix
			mixCfg.Seed = cfg.Mix.Seed + int64(w)*7919
			gen, err := trace.NewMix(mixCfg)
			if err != nil {
				errc <- err
				return
			}
			// The tenants this worker owns.
			var owned []int
			for t := w % cfg.Mix.Tenants; t < cfg.Mix.Tenants; t += cfg.Conns {
				owned = append(owned, t)
			}
			if len(owned) == 0 {
				owned = []int{w % cfg.Mix.Tenants}
			}
			reqs := make([]wire.Request, 0, cfg.Depth+2*cfg.Mix.Values.MaxSpan())
			var done uint64
			for turn := 0; ; turn++ {
				if perConn > 0 && done >= perConn {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				if drained.Load() {
					return
				}
				tenant := owned[turn%len(owned)]
				reqs = reqs[:0]
				burstSteps := uint64(0)
				for len(reqs) < cfg.Depth {
					if perConn > 0 && done+burstSteps >= perConn {
						break
					}
					step := gen.NextFor(tenant)
					burstSteps++
					for chunk := 0; chunk < step.Span; chunk++ {
						key := trace.ChunkKey(step.Key, chunk)
						switch step.Op {
						case trace.YCSBRead:
							reqs = append(reqs, wire.Request{Op: wire.OpGet, Key: key})
						case trace.YCSBUpdate, trace.YCSBInsert:
							// Inserts travel as upserts: worker-local id
							// streams may collide across connections, and
							// a repeat run against a warm server must not
							// fail on duplicate inserts.
							reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: key, Value: step.Value})
						case trace.YCSBRMW:
							reqs = append(reqs,
								wire.Request{Op: wire.OpGet, Key: key},
								wire.Request{Op: wire.OpPut, Key: key, Value: step.Value})
						}
					}
				}
				if len(reqs) == 0 {
					return
				}
				t0 := time.Now()
				resps, err := send(c, reqs, cfg.Batch)
				dt := uint64(time.Since(t0))
				rtt.Observe(dt)
				tenants[tenant].rtt.Observe(dt)
				if err != nil {
					// Connection failed mid-burst (server aborted, not
					// drained): the sent burst's acks are unknowable
					// from here; count none of it.
					drained.Store(true)
					return
				}
				var burstAcked uint64
				for _, r := range resps {
					switch r.Status {
					case wire.StatusOK, wire.StatusNotFound:
						// Acked: applied (or a definitive read/delete
						// miss the server answered).
						burstAcked++
					case wire.StatusDraining:
						// Refused: the server is shutting down. Not
						// acked, and the run winds down — but earlier
						// responses of this same burst stay counted
						// (the mid-drain straddle).
						drained.Store(true)
					default:
						errc <- fmt.Errorf("loadgen: server rejected an operation: %s", client.StatusErr(r.Status))
						return
					}
				}
				acked.Add(burstAcked)
				tenants[tenant].ops.Add(burstAcked)
				steps.Add(burstSteps)
				done += burstSteps
				if drained.Load() {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res := Result{
		Acked:   acked.Load(),
		Steps:   steps.Load(),
		Drained: drained.Load(),
		Wall:    time.Since(start),
		RTT:     rtt.Snapshot(),
	}
	for t, tm := range tenants {
		res.Tenants = append(res.Tenants, TenantResult{Tenant: t, Acked: tm.ops.Load(), RTT: tm.rtt.Snapshot()})
	}
	select {
	case err := <-errc:
		return res, err
	default:
		return res, nil
	}
}
