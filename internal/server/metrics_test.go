package server

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"grouphash"
	"grouphash/internal/layout"
	"grouphash/internal/oplog"
	"grouphash/internal/stats"
	"grouphash/internal/wire"
)

// TestMetricsExposition is the acceptance test for the scrape surface:
// a loaded server's metrics — fetched both over the wire protocol
// (OpStats in Prometheus format) and over HTTP from the registry
// handler — must parse as conformant text exposition and include the
// per-opcode latency histograms, oplog sync/batch metrics, expansion
// counters, one snapshot-pause sample per snapshot, and
// (shared-registry) simulated-substrate counters.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	lg, err := oplog.OpenConfig(filepath.Join(dir, "oplog"), 1, oplog.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// One registry scrapes every layer: the server registers itself,
	// its store and its oplog; a simulated-substrate store contributes
	// the paper's NVM/cache cost counters under its own prefix. (The
	// server's own store is native-backed — the simulator is
	// single-threaded by design, so its counters ride along from a
	// sequential store that is idle at scrape time.)
	s, addr := startServer(t, grouphash.Options{Capacity: 1 << 12},
		Config{Oplog: lg, SnapshotPath: filepath.Join(dir, "store.pmfs")})
	sim, err := grouphash.NewSimulated(grouphash.Options{Capacity: 1 << 10}, grouphash.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 64; i++ {
		if err := sim.Put(layout.Key{Lo: i}, i); err != nil {
			t.Fatal(err)
		}
		sim.Get(layout.Key{Lo: i})
	}
	sim.RegisterSubstrateMetrics(s.Registry(), "sim")
	c := dial(t, addr)

	// Load every opcode so each per-op histogram holds samples.
	const puts = 200
	for i := uint64(1); i <= puts; i++ {
		if err := c.Put(layout.Key{Lo: i}, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 50; i++ {
		if _, _, err := c.Get(layout.Key{Lo: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(layout.Key{Lo: 1 << 40}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(layout.Key{Lo: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Len(); err != nil {
		t.Fatal(err)
	}
	const snapshots = 2
	for range snapshots {
		if err := s.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}

	check := func(src, text string) map[string]*stats.ExpoFamily {
		t.Helper()
		fams, err := stats.ValidateExposition(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s fails exposition conformance: %v\n%s", src, err, text)
		}
		// Per-opcode latency histograms with the load's sample counts.
		lat := fams["gh_server_request_latency_seconds"]
		if lat == nil || lat.Type != "histogram" {
			t.Fatalf("%s: gh_server_request_latency_seconds missing or mistyped", src)
		}
		for op, atLeast := range map[string]float64{
			"put": puts, "get": 50, "delete": 1, "ping": 1, "len": 1,
		} {
			if v := lat.Samples[`_count|op="`+op+`"`]; v < atLeast {
				t.Errorf("%s: latency count for op=%s is %v, want ≥ %v", src, op, v, atLeast)
			}
		}
		if _, ok := lat.Samples[`_count|op="insert"`]; ok {
			t.Errorf("%s: the retired opcode 4 still exports an op=insert histogram", src)
		}
		// Oplog durability metrics: every acked write was synced, so
		// the sync-latency and batch-size histograms must hold samples.
		for _, name := range []string{"gh_oplog_sync_latency_seconds", "gh_oplog_batch_records"} {
			f := fams[name]
			if f == nil || f.Type != "histogram" {
				t.Fatalf("%s: %s missing or mistyped", src, name)
			}
			if v := f.Samples["_count|"]; v < 1 {
				t.Errorf("%s: %s count = %v, want ≥ 1", src, name, v)
			}
		}
		// Ack latency: every durably acked write contributes one sample
		// measured from request receipt to durable-watermark release.
		ack := fams["gh_server_ack_latency_seconds"]
		if ack == nil || ack.Type != "histogram" {
			t.Fatalf("%s: gh_server_ack_latency_seconds missing or mistyped", src)
		}
		if v := ack.Samples["_count|"]; v < puts {
			t.Errorf("%s: ack latency count = %v, want ≥ %v", src, v, float64(puts))
		}
		if v, ok := fams["gh_oplog_last_lsn"].Sample(""); !ok || v < puts {
			t.Errorf("%s: gh_oplog_last_lsn = %v (%v), want ≥ %v", src, v, ok, float64(puts))
		}
		// Expansion progress series exist (zero-valued is fine at this
		// load — presence and parseability is the contract here; the
		// non-zero path is covered by the façade property test).
		for _, name := range []string{
			"gh_store_expansions_total", "gh_store_expansion_stripes_migrated",
			"gh_store_expansion_stripes", "gh_store_expansion_writer_stall_seconds_total",
		} {
			if _, ok := fams[name]; !ok {
				t.Errorf("%s: %s missing", src, name)
			}
		}
		if v, ok := fams["gh_store_items"].Sample(""); !ok || v < puts {
			t.Errorf("%s: gh_store_items = %v (%v), want ≥ %v", src, v, ok, float64(puts))
		}
		// Substrate counters from the shared registry: NVM write
		// traffic and per-level cache hits, non-zero from the sim load.
		if v, ok := fams["sim_nvm_stores_total"].Sample(""); !ok || v == 0 {
			t.Errorf("%s: sim_nvm_stores_total = %v (%v), want > 0", src, v, ok)
		}
		hits := fams["sim_cache_hits_total"]
		if hits == nil {
			t.Fatalf("%s: sim_cache_hits_total missing", src)
		}
		if v, ok := hits.Sample(`level="L1"`); !ok || v == 0 {
			t.Errorf(`%s: sim_cache_hits_total{level="L1"} = %v (%v), want > 0`, src, v, ok)
		}
		// Every snapshot observes its writers-excluded pause once, next
		// to its end-to-end duration.
		for _, name := range []string{"gh_server_snapshot_pause_seconds", "gh_server_snapshot_duration_seconds"} {
			f := fams[name]
			if f == nil || f.Type != "histogram" {
				t.Fatalf("%s: %s missing or mistyped", src, name)
			}
			if v := f.Samples["_count|"]; v != snapshots {
				t.Errorf("%s: %s count = %v, want %d (one per snapshot)", src, name, v, snapshots)
			}
		}
		// Server byte accounting moved at least the request traffic.
		if v, ok := fams["gh_server_bytes_read_total"].Sample(""); !ok || v == 0 {
			t.Errorf("%s: gh_server_bytes_read_total = %v (%v), want > 0", src, v, ok)
		}
		return fams
	}

	// Path 1: over the wire protocol (OpStats, Prometheus format).
	wireText, err := c.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	check("wire scrape", wireText)

	// Path 2: over HTTP from the registry handler, as /metrics mounts it.
	rec := httptest.NewRecorder()
	s.Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	check("http scrape", rec.Body.String())

	if !s.Ready() {
		t.Error("serving, undrained server must report Ready")
	}
}

// TestStatsFormats pins that OpStats has one payload: whatever the
// request's Value — 0, 1 and 2 once selected a text line, a JSON
// document and the exposition, 7 never meant anything — the reply is
// the registry's Prometheus exposition, counting the load so far.
func TestStatsFormats(t *testing.T) {
	_, addr := startServer(t, grouphash.Options{Capacity: 1 << 12}, Config{})
	c := dial(t, addr)
	if err := c.Put(layout.Key{Lo: 9}, 9); err != nil {
		t.Fatal(err)
	}
	for _, value := range []uint64{0, 1, 2, 7} {
		resps, err := c.Do([]wire.Request{{Op: wire.OpStats, Value: value}})
		if err != nil {
			t.Fatal(err)
		}
		if resps[0].Status != wire.StatusOK {
			t.Fatalf("OpStats Value=%d: status %d", value, resps[0].Status)
		}
		fams, err := stats.ValidateExposition(bytes.NewReader(resps[0].Extra))
		if err != nil {
			t.Fatalf("OpStats Value=%d fails exposition conformance: %v\n%s", value, err, resps[0].Extra)
		}
		if v, ok := fams["gh_server_requests_total"].Sample(`class="write"`); !ok || v != 1 {
			t.Errorf("OpStats Value=%d: write requests = %v (%v), want 1", value, v, ok)
		}
	}
}
