package oplog

import "grouphash/internal/stats"

// RegisterMetrics exports the log's observability counters into r under
// the given metric-name prefix (e.g. "gh" → gh_oplog_fsyncs_total).
// The group-commit behaviour PR 4 bought — one fsync amortised over a
// pipelined batch — is directly visible here: batch_records is the
// distribution of records made durable per fsync, and sync_latency is
// the fsync syscall cost those batches amortise.
func (l *Log) RegisterMetrics(r *stats.Registry, prefix string) {
	p := prefix + "_oplog_"
	r.RegisterGauge(p+"last_lsn", "", "Highest LSN assigned (not necessarily durable).",
		func() float64 { return float64(l.LastLSN()) })
	r.RegisterGauge(p+"durable_lsn", "", "Highest LSN known fsync-durable.",
		func() float64 { return float64(l.DurableLSN()) })
	r.RegisterGauge(p+"segments", "", "Live on-disk segment files (active included).",
		func() float64 {
			l.flushMu.Lock()
			n := len(l.segs)
			l.flushMu.Unlock()
			return float64(n)
		})
	r.RegisterCounter(p+"fsyncs_total", "", "Group-commit fsyncs issued.", l.fsyncs.Load)
	r.RegisterCounter(p+"appends_total", "", "AppendBatch calls (buffer-lock acquisitions; divide records by this for the batch amortisation).", l.appends.Load)
	r.RegisterCounter(p+"rotations_total", "", "Segment rotations (one per snapshot).", l.rotations.Load)
	r.RegisterCounter(p+"truncated_segments_total", "", "Sealed segments deleted after a covering snapshot.", l.truncated.Load)
	r.RegisterCounter(p+"bytes_written_total", "", "Record bytes written to segment files (headers excluded).", l.bytesOut.Load)
	r.RegisterHistogram(p+"sync_latency_seconds", "", "fsync syscall latency per group commit.", 1e-9, &l.syncLat)
	r.RegisterHistogram(p+"batch_records", "", "Records made durable per fsync (group-commit batch size).", 1, &l.batchRec)
}

// Fsyncs returns the number of group-commit fsyncs issued so far.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// Appends returns the number of AppendBatch calls so far — each is one
// buffer-lock acquisition, so records÷appends is the staging
// amortisation the batch paths buy.
func (l *Log) Appends() uint64 { return l.appends.Load() }
