package loadgen

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grouphash/internal/engine"
	"grouphash/internal/server"
	"grouphash/internal/stats"
	"grouphash/internal/trace"
)

// lab is an in-process server the driver runs against.
type lab struct {
	srv      *server.Server
	addr     string
	done     chan error
	waitOnce sync.Once
	waitErr  error
}

func startLab(t *testing.T, cfg server.Config) *lab {
	t.Helper()
	if cfg.Engine == nil {
		eng, err := engine.New(engine.Spec{Name: "grouphash", Capacity: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = eng
	}
	cfg.Logf = t.Logf
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{srv: s, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- s.Serve(ln) }()
	t.Cleanup(func() { l.stop(t) })
	return l
}

// wait joins the serve loop exactly once (idempotent across the test
// body and the cleanup).
func (l *lab) wait() error {
	l.waitOnce.Do(func() { l.waitErr = <-l.done })
	return l.waitErr
}

func (l *lab) stop(t *testing.T) {
	t.Helper()
	if !l.srv.Draining() {
		if err := l.srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
	if err := l.wait(); err != nil {
		t.Errorf("serve: %v", err)
	}
}

func baseMix(mut func(*trace.MixConfig)) trace.MixConfig {
	cfg := trace.MixConfig{
		Records:    2000,
		Theta:      0.99,
		Tenants:    1,
		ReadFrac:   0.5,
		UpdateFrac: 0.5,
		Seed:       7,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// TestPreloadHonorsBatch pins that the preload phase ships OpBatch
// frames when Batch is set — observed from the server side, whose
// gh_server_batch_size{source="frame"} histogram only ever counts
// explicit frames.
func TestPreloadHonorsBatch(t *testing.T) {
	frameCount := func(t *testing.T, batch int) uint64 {
		l := startLab(t, server.Config{})
		n, err := Preload(Config{Addr: l.addr, Mix: baseMix(nil), Conns: 2, Depth: 64, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if n != 2000 {
			t.Fatalf("preload acked %d keys, want 2000", n)
		}
		var buf bytes.Buffer
		if err := l.srv.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, `gh_server_batch_size_count{source="frame"}`) {
				var c uint64
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &c)
				return c
			}
		}
		return 0
	}
	t.Run("batched", func(t *testing.T) {
		if c := frameCount(t, 16); c == 0 {
			t.Fatal("preload with Batch=16 sent no OpBatch frames")
		}
	})
	t.Run("pipelined", func(t *testing.T) {
		if c := frameCount(t, 0); c != 0 {
			t.Fatalf("preload with Batch=0 sent %d OpBatch frames", c)
		}
	})
}

// TestRunDrainStraddle is the mid-drain regression: the server drains
// while a pipelined burst is in flight, so one burst straddles the
// cutover — an acked prefix followed by StatusDraining refusals. Only
// the prefix may count, and the proof is exact: an insert-only
// workload of unique keys reloaded from the drain snapshot must hold
// precisely preload + acked-run keys.
func TestRunDrainStraddle(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "store.pmfs")
	spec := engine.Spec{Name: "grouphash", Capacity: 1 << 14}
	eng, err := engine.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	l := startLab(t, server.Config{Engine: eng, SnapshotPath: img})

	mix := baseMix(func(c *trace.MixConfig) {
		c.ReadFrac, c.UpdateFrac, c.InsertFrac = 0, 0, 1
	})
	preloaded, err := Preload(Config{Addr: l.addr, Mix: mix, Conns: 1, Depth: 64})
	if err != nil {
		t.Fatal(err)
	}

	drainErr := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		drainErr <- l.srv.Drain()
	}()
	res, err := Run(Config{
		Addr:     l.addr,
		Mix:      mix,
		Duration: 30 * time.Second, // the drain ends the run, not the clock
		Conns:    1,
		Depth:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}
	if err := l.wait(); err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("run did not observe the drain")
	}
	if res.Acked == 0 {
		t.Fatal("no acked operations before the drain — the straddle was not exercised")
	}

	reloaded, _, err := engine.Load(spec, img)
	if err != nil {
		t.Fatal(err)
	}
	want := preloaded + res.Acked
	if got := reloaded.Len(); got != want {
		t.Fatalf("reloaded image holds %d keys, want %d (preload %d + acked inserts %d) — drain straddle miscounted",
			got, want, preloaded, res.Acked)
	}
}

// TestRunDuration: the time-bounded mode returns promptly after the
// deadline with its in-flight work fully accounted.
func TestRunDuration(t *testing.T) {
	l := startLab(t, server.Config{})
	mix := baseMix(nil)
	if _, err := Preload(Config{Addr: l.addr, Mix: mix, Conns: 2, Depth: 64}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(Config{Addr: l.addr, Mix: mix, Duration: 200 * time.Millisecond, Conns: 2, Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("duration-bounded run took %v", wall)
	}
	if res.Drained {
		t.Fatal("run reported a drain that never happened")
	}
	if res.Acked == 0 || res.Steps == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.RTT.Count == 0 {
		t.Fatal("no RTT samples")
	}
}

// TestPerTenantMetrics pins the per-tenant registry series: one
// ops-counter and one RTT-histogram series per tenant label, counts
// that reconcile exactly with the result, and an exposition that
// passes the conformance checker.
func TestPerTenantMetrics(t *testing.T) {
	const tenants = 4
	l := startLab(t, server.Config{})
	mix := baseMix(func(c *trace.MixConfig) {
		c.Tenants = tenants
		c.Records = 500
	})
	if _, err := Preload(Config{Addr: l.addr, Mix: mix, Conns: 2, Depth: 64}); err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	res, err := Run(Config{Addr: l.addr, Mix: mix, Ops: 20_000, Conns: 2, Depth: 32, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != tenants {
		t.Fatalf("result carries %d tenants, want %d", len(res.Tenants), tenants)
	}
	var sum uint64
	for _, tr := range res.Tenants {
		if tr.Acked == 0 {
			t.Fatalf("tenant %d got no traffic", tr.Tenant)
		}
		if tr.RTT.Count == 0 {
			t.Fatalf("tenant %d has no RTT samples", tr.Tenant)
		}
		sum += tr.Acked
	}
	if sum != res.Acked {
		t.Fatalf("per-tenant acked sums to %d, total says %d", sum, res.Acked)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for i := 0; i < tenants; i++ {
		want := fmt.Sprintf(`ghload_tenant_ops_total{tenant="%d"} %d`, i, res.Tenants[i].Acked)
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
		if !strings.Contains(body, fmt.Sprintf(`ghload_tenant_rtt_seconds_count{tenant="%d"}`, i)) {
			t.Fatalf("exposition missing tenant %d RTT series", i)
		}
	}
	if _, err := stats.ValidateExposition(bytes.NewReader([]byte(body))); err != nil {
		t.Fatalf("exposition failed conformance: %v", err)
	}
}

// TestRunSpansAndRMW drives the value-size mixture and RMW pairs
// through a live server: batched frames, multi-chunk records, and the
// acked count reconciling with the wire expansion.
func TestRunSpansAndRMW(t *testing.T) {
	l := startLab(t, server.Config{})
	values, err := trace.ParseValueDist("1:70,4:30")
	if err != nil {
		t.Fatal(err)
	}
	mix := baseMix(func(c *trace.MixConfig) {
		c.Records = 500
		c.ReadFrac, c.UpdateFrac, c.RMWFrac = 0.4, 0.3, 0.3
		c.Values = values
	})
	preloaded, err := Preload(Config{Addr: l.addr, Mix: mix, Conns: 2, Depth: 64, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Preload covers every chunk: 500 records at mean span 0.7·1+0.3·4.
	if preloaded <= 500 {
		t.Fatalf("preload acked %d keys — value-dist spans not preloaded", preloaded)
	}
	res, err := Run(Config{Addr: l.addr, Mix: mix, Ops: 5_000, Conns: 2, Depth: 32, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk of every preloaded record exists, so nothing reads
	// NotFound and acked == the exact wire expansion of the steps.
	if res.Acked <= res.Steps {
		t.Fatalf("acked %d wire ops for %d steps — spans/RMW did not expand", res.Acked, res.Steps)
	}
}
