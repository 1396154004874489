package oplog

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// TestRegisterMetrics drives a log through append / wait / rotate /
// truncate and checks the registered series both render conformantly
// and carry the values the log's own accessors report.
func TestRegisterMetrics(t *testing.T) {
	// An hour-long window: only the two WaitDurable calls commit.
	l, err := OpenConfig(filepath.Join(t.TempDir(), "log"), 1, Config{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := stats.NewRegistry()
	l.RegisterMetrics(reg, "gh")

	// Two group commits: 5 records under one fsync, then 2 more.
	for i := uint64(1); i <= 5; i++ {
		appendOne(l, OpPut, layout.Key{Lo: i}, i)
	}
	if err := l.WaitDurable(5); err != nil {
		t.Fatal(err)
	}
	appendOne(l, OpDelete, layout.Key{Lo: 1}, 0)
	appendOne(l, OpInsert, layout.Key{Lo: 9}, 90)
	if err := l.WaitDurable(7); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(7); err != nil {
		t.Fatal(err)
	}

	if got := l.Fsyncs(); got < 2 {
		t.Fatalf("Fsyncs = %d, want ≥ 2", got)
	}
	batches := l.BatchSizes()
	if batches.Count != 2 || batches.Sum != 7 {
		t.Fatalf("batch distribution count=%d sum=%d, want 2 batches summing to 7 records",
			batches.Count, batches.Sum)
	}
	if lat := l.SyncLatency(); lat.Count != uint64(l.Fsyncs()) {
		t.Fatalf("sync latency has %d samples, want one per fsync (%d)", lat.Count, l.Fsyncs())
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := stats.ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("oplog metrics fail conformance:\n%s\nerror: %v", buf.String(), err)
	}
	expect := map[string]float64{
		"gh_oplog_last_lsn":                 7,
		"gh_oplog_durable_lsn":              7,
		"gh_oplog_segments":                 1, // sealed segment truncated away, active remains
		"gh_oplog_rotations_total":          1,
		"gh_oplog_truncated_segments_total": 1,
	}
	for name, want := range expect {
		v, ok := fams[name].Sample("")
		if !ok || v != want {
			t.Errorf("%s = %v (%v), want %v", name, v, ok, want)
		}
	}
	if v, ok := fams["gh_oplog_fsyncs_total"].Sample(""); !ok || v < 2 {
		t.Errorf("gh_oplog_fsyncs_total = %v (%v), want ≥ 2", v, ok)
	}
	if v, ok := fams["gh_oplog_bytes_written_total"].Sample(""); !ok || v != 7*RecordLen {
		t.Errorf("gh_oplog_bytes_written_total = %v (%v), want %d", v, ok, 7*RecordLen)
	}
	if v := fams["gh_oplog_batch_records"].Samples["_count|"]; v < 2 {
		t.Errorf("gh_oplog_batch_records count = %v, want ≥ 2", v)
	}
}
