// Package oplog is the file-backed operation log that closes the
// serving layer's durability hole: every mutating request the server
// acks is first made durable here, so "acked" finally means "survives
// a power failure", not "survives until the next snapshot".
//
// # Role next to snapshots
//
// The network server persists through pmfs snapshot images. An image
// alone only covers acked writes up to the moment it was captured; the
// oplog covers the tail. Each image records the log sequence number
// (LSN) of the last operation it contains (its "oplog mark"), and
// recovery is: load the newest image, then replay every log record
// with a higher LSN, each key's records in LSN order (Replay, through
// the store's batch path). Snapshot + log tail = complete state; the
// log is rotated at every snapshot and the fully-covered segments are
// deleted once the image is durable.
//
// # Group commit
//
// AppendBatch stages records in an in-memory buffer; they are durable
// only after an fsync covers them. A committer goroutine owns the fsync
// clock. The first record staged into an empty buffer opens a commit
// window; the committer fsyncs as soon as a WaitDurable caller parks on
// a record that is not yet durable, SyncBytes accumulate, or SyncEvery
// elapses, whichever comes first (a zero SyncEvery is a zero-length
// window: the fsync starts as soon as a record is staged). Callers park
// in WaitDurable until the durable-LSN watermark passes their record.
// A waiter that parks while an fsync is in flight closes the next
// window the moment it opens, so under load the fsyncs run back to
// back and each one covers every record staged, by every connection,
// while the previous one was on disk — not just one pipelined batch.
// An acked record therefore waits for at most the fsync in flight plus
// its own, never for the timer: SyncEvery and SyncBytes bound only the
// durability lag of records nobody waits on. (A timer would also be
// coarse: once every goroutine is parked, Go's Linux netpoller rounds a
// sub-millisecond timeout up to 1 ms, so a 100 µs window costs a full
// millisecond on an idle process.)
//
// One fsync covers a whole batch of operations, amortising the
// dominant cost the same way the paper's batched persists amortise
// clflush traffic.
//
// # Crash safety
//
// Records carry a CRC and strictly sequential LSNs. A torn tail (the
// crash hit mid-write) fails the CRC or the sequence check and replay
// stops there — safe, because a record is only ever acked after an
// fsync that covers it and everything before it, so no acked record
// can follow a torn one. Segment files are created with their header
// fsynced (file and directory) before any record lands in them, and
// replay (Scan) never writes, so a crash during recovery just replays
// again from the same files: replay is idempotent by construction.
//
// # Preallocation
//
// A segment grows in whole steps of Config.PreallocBytes: the flush
// that would cross the zero-filled end writes real zeros up to the next
// step boundary that covers it and commits with a full fsync, so the
// new size and block mapping are durable. Every later commit inside the
// grown region overwrites allocated blocks without changing file
// metadata and commits with a data-only sync (fdatasync on Linux). The
// zero tail past the last record reads as a torn tail (a zero record
// fails its CRC), so preallocation changes no recovery rule.
package oplog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grouphash/internal/core"
	"grouphash/internal/layout"
	"grouphash/internal/stats"
)

// Record is one durable log entry: an acked (or at least
// fsync-covered) store mutation. On disk its kind is the BatchKind
// byte, so the store's own op replays unchanged.
type Record struct {
	// LSN is the record's log sequence number; strictly sequential.
	LSN uint64
	core.BatchOp
}

// segMagic identifies an oplog segment file, last byte = format
// version.
const segMagic = 0x47484f504c4f4701 // "GHOPLOG" + 1

// SegHeaderLen is the segment header size: magic, seq, startLSN, crc
// (padded to a word). It and RecordLen are exported, as ActivePath is,
// for crash harnesses that aim damage at a record slot.
const SegHeaderLen = 32

// RecordLen is the fixed record size: lsn, key.Lo, key.Hi, value, op +
// 3 pad bytes, crc32.
const RecordLen = 8 + 8 + 8 + 8 + 4 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("oplog: log is closed")

// Config tunes the log's commit window and segment allocation. The zero
// value fsyncs as soon as a record is staged and grows segments on
// demand.
type Config struct {
	// SyncEvery is the commit window: the committer fsyncs at most
	// SyncEvery after the first record of a window is staged (zero or
	// negative: at once). A WaitDurable caller closes the window at
	// once, so SyncEvery bounds only the durability lag of an append
	// nobody is waiting on, not ack latency. On Linux a
	// sub-millisecond SyncEvery rounds up to 1 ms whenever every
	// goroutine is parked (the runtime's netpoller sleeps in whole
	// milliseconds).
	SyncEvery time.Duration
	// SyncBytes, when > 0, closes a commit window early once at least
	// SyncBytes of records are staged. Like SyncEvery it bounds only
	// the records nobody waits on: a parked WaitDurable caller has
	// already closed the window.
	SyncBytes int
	// PreallocBytes is the step segments grow by. A flush that would
	// cross the zero-filled end zero-fills the segment up to the next
	// whole multiple of PreallocBytes that covers it and commits with a
	// full fsync; every other commit overwrites already-allocated blocks
	// and uses a data-only sync (fdatasync on Linux) instead of
	// journaling a size update. Zero or negative: the file grows by
	// exactly what each flush writes, and every commit that wrote
	// records is a full fsync.
	PreallocBytes int64
}

// zeroBlock is the one source of the zeros segment growth writes, so
// growing a segment allocates nothing.
var zeroBlock [256 << 10]byte

// segment is one on-disk log file. Segment i holds LSNs
// [start_i, start_{i+1}-1]; the last segment is the active one.
type segment struct {
	path  string
	seq   uint64
	start uint64 // first LSN this segment may contain
	dead  bool   // header unreadable (crash mid-creation): no records
}

// Log is an append-only, group-committed operation log. AppendBatch
// and WaitDurable are safe for concurrent use, including concurrently
// with Rotate (a record assigned during a rotation lands in the new
// segment, whose header start covers it); Rotate/TruncateThrough/
// Close are the snapshot path's and must not race each other.
type Log struct {
	base string
	dir  string
	cfg  Config

	mu      sync.Mutex // buf, spare, lastLSN, active file identity
	buf     []byte
	spare   []byte // the last flushed buffer, handed back to appenders
	lastLSN uint64

	flushMu sync.Mutex // file writes + fsync + segment swap
	f       *os.File   // active segment
	written int64      // bytes written to the active segment
	synced  int64      // bytes fsynced (crash-survivable prefix)
	size    int64      // active segment's file size: the header, then written rounded up to whole PreallocBytes steps
	grown   bool       // size changed since the last sync: the next one must be a full fsync
	err     error      // sticky I/O failure: nothing acks after it

	segs    []segment // all live segments, seq order, active last
	durable atomic.Uint64
	closed  atomic.Bool

	// Committer machinery.
	kick          chan struct{} // a record was staged into an empty buffer
	kickBytes     chan struct{} // staged bytes crossed cfg.SyncBytes
	kickWait      chan struct{} // a WaitDurable caller parked on a non-durable record
	stopc         chan struct{}
	committerDone chan struct{}

	// WaitDurable parking. waitMu also serialises the sticky waitErr;
	// flushers broadcast after every durable-watermark advance/failure.
	waitMu   sync.Mutex
	waitCond *sync.Cond
	waitErr  error

	// Observability (zero-value-ready; exported via RegisterMetrics).
	syncLat   stats.Histogram // fsync syscall latency, nanoseconds
	batchRec  stats.Histogram // records made durable per fsync (group-commit batch)
	fsyncs    atomic.Uint64
	appends   atomic.Uint64 // AppendBatch calls — buffer-lock acquisitions, not records
	rotations atomic.Uint64
	truncated atomic.Uint64
	bytesOut  atomic.Uint64
}

// testHookRotateAfterDrain, when non-nil, runs inside Rotate between
// the flush-drain and the new segment's creation — the window where a
// concurrent AppendBatch may assign LSNs past the drained high-water
// mark. Tests use it to pin that such a record lands in the new
// segment under a header start that covers it.
var testHookRotateAfterDrain func()

// testHookFsyncErr, when non-nil, is consulted before every record
// fsync; a non-nil return is treated exactly like the fsync syscall
// failing. Tests use it to prove batch-failure fan-out: every waiter of
// the failed group commit (and every later one) must see the error.
var testHookFsyncErr func() error

// testHookSync, when non-nil, is told the kind of every record sync:
// full is true for an fsync that makes a segment's growth durable and
// false for a data-only sync. Tests use it to pin that only growth
// steps pay for a metadata commit.
var testHookSync func(full bool)

// SetTestFsyncErr installs (or, with nil, clears) a hook consulted
// before every record fsync; a non-nil return from the hook is treated
// exactly like the fsync syscall failing. For crash-injection tests in
// other packages only — production code must never call it.
func SetTestFsyncErr(fn func() error) { testHookFsyncErr = fn }

// segPath names segment seq of a log based at base.
func segPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%08d", base, seq)
}

// listSegments finds the existing segment files of base, sorted by
// sequence number, reading each header for its start LSN.
func listSegments(base string) ([]segment, error) {
	matches, err := filepath.Glob(base + ".*")
	if err != nil {
		return nil, fmt.Errorf("oplog: listing segments: %w", err)
	}
	var segs []segment
	for _, path := range matches {
		// segPath pads to 8 digits but widens beyond them once seq
		// exceeds 99,999,999 — accept any all-digit suffix of at least
		// the padded width, or recovery would silently skip segments.
		suffix := path[len(base)+1:]
		if len(suffix) < 8 {
			continue
		}
		seq, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		s := segment{path: path, seq: seq}
		if start, err := readSegHeader(path); err != nil {
			s.dead = true // crash mid-creation; provably holds no acked record
		} else {
			s.start = start
		}
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// readSegHeader validates a segment file's header and returns its
// start LSN.
func readSegHeader(path string) (start uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [SegHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("oplog: segment header: %w", err)
	}
	return parseSegHeader(hdr[:])
}

func parseSegHeader(hdr []byte) (start uint64, err error) {
	if got := binary.LittleEndian.Uint64(hdr[0:8]); got != segMagic {
		return 0, fmt.Errorf("oplog: bad segment magic %#x", got)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[24:28]), crc32.Checksum(hdr[:24], crcTable); got != want {
		return 0, fmt.Errorf("oplog: segment header crc %#x, want %#x", got, want)
	}
	return binary.LittleEndian.Uint64(hdr[16:24]), nil
}

// writeSegHeader creates a header-only segment file and makes its
// existence durable (header fsync + directory fsync) before returning
// it. It preallocates nothing: the first flush grows the segment like
// any later one (see grow), so creating a segment — inside the
// snapshot's writer-exclusion window, for Rotate — costs one small
// write and two fsyncs however large PreallocBytes is.
func writeSegHeader(path string, seq, start uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("oplog: creating segment: %w", err)
	}
	var hdr [SegHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], start)
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[:24], crcTable))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("oplog: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("oplog: syncing segment header: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so file creations and deletions inside it
// are durable, not merely visible.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("oplog: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("oplog: syncing directory: %w", err)
	}
	return nil
}

// OpenConfig opens the log based at base for appending, starting a
// fresh segment whose first LSN is nextLSN (callers derive it from
// Scan and the snapshot's oplog mark: one past the highest LSN known).
// A fresh segment — never appending to an existing file — means a torn
// tail left by a crash can never precede new records. The returned
// log runs its own committer goroutine; Close (or Abort) stops it.
func OpenConfig(base string, nextLSN uint64, cfg Config) (*Log, error) {
	if nextLSN == 0 {
		nextLSN = 1
	}
	segs, err := listSegments(base)
	if err != nil {
		return nil, err
	}
	seq := uint64(1)
	if n := len(segs); n > 0 {
		seq = segs[n-1].seq + 1
	}
	path := segPath(base, seq)
	f, err := writeSegHeader(path, seq, nextLSN)
	if err != nil {
		return nil, err
	}
	l := &Log{
		base:    base,
		dir:     filepath.Dir(base),
		cfg:     cfg,
		f:       f,
		written: SegHeaderLen,
		synced:  SegHeaderLen,
		size:    SegHeaderLen,
		lastLSN: nextLSN - 1,
		segs:    append(segs, segment{path: path, seq: seq, start: nextLSN}),

		kick:          make(chan struct{}, 1),
		kickBytes:     make(chan struct{}, 1),
		kickWait:      make(chan struct{}, 1),
		stopc:         make(chan struct{}),
		committerDone: make(chan struct{}),
	}
	l.durable.Store(nextLSN - 1)
	l.waitCond = sync.NewCond(&l.waitMu)
	go l.committer()
	return l, nil
}

// AppendBatch stages every record of recs under ONE buffer-lock
// acquisition — the stripe-grouped apply path's amortisation: a run of
// N mutations costs one lock round trip and one staging pass instead of
// N — assigning strictly sequential LSNs. recs[i].LSN is overwritten
// with first+i, and first is returned; callers ack record i once
// WaitDurable(first+i) returns nil. The records are NOT durable on
// return. A batch staged into an empty buffer opens a commit window,
// and crossing cfg.SyncBytes or a WaitDurable caller parking closes it
// early. An empty recs returns 0 without touching the log.
func (l *Log) AppendBatch(recs []Record) (first uint64) {
	if len(recs) == 0 {
		return 0
	}
	l.appends.Add(1)
	l.mu.Lock()
	first = l.lastLSN + 1
	wasEmpty := len(l.buf) == 0
	for i := range recs {
		l.lastLSN++
		recs[i].LSN = l.lastLSN
		l.buf = appendRecord(l.buf, recs[i])
	}
	staged := len(l.buf)
	l.mu.Unlock()
	// flushLocked grabs the whole buffer under l.mu, so exactly one
	// appender observes each empty→non-empty transition: every
	// commit window is opened by exactly one kick. A stale byte-kick
	// (sent just as the committer drained the buffer) only closes
	// the next window early — an extra fsync, never a lost one.
	if wasEmpty {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	if l.cfg.SyncBytes > 0 && staged >= l.cfg.SyncBytes {
		select {
		case l.kickBytes <- struct{}{}:
		default:
		}
	}
	return first
}

// committer is the log's fsync clock and the only fsync issuer outside
// Rotate/Close: it sleeps until a kick opens a commit window, then
// flushes when a waiter parks, the byte trigger fires or cfg.SyncEvery
// elapses, whichever first — at once when SyncEvery ≤ 0, because
// Reset of a timer to a non-positive duration fires it immediately. A
// waiter's kick that lands during an in-flight commit stays buffered
// and closes the next window as soon as it opens.
func (l *Log) committer() {
	defer close(l.committerDone)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-l.stopc:
			return
		case <-l.kick:
		}
		timer.Reset(l.cfg.SyncEvery)
		select {
		case <-l.stopc:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-l.kickWait:
			if !timer.Stop() {
				<-timer.C
			}
		case <-l.kickBytes:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
		l.commit()
	}
}

// commit is one committer flush: fsync whatever is pending, ignoring
// stale kicks. Errors are sticky in l.err and fanned out to waiters by
// flushLocked; the committer itself just keeps serving windows (every
// subsequent flush re-fails fast).
func (l *Log) commit() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	pending := len(l.buf) > 0 || l.lastLSN > l.durable.Load()
	l.mu.Unlock()
	if !pending {
		return
	}
	_, _ = l.flushLocked(true)
}

// WaitDurable blocks until every record with LSN ≤ upTo is durable, or
// the log fails or closes. It is the log's ack gate: a caller that has
// to park first kicks the committer, which ends the open commit window
// at once (or, with an fsync in flight, the next one as soon as it
// opens), and every record staged by then — across all connections —
// rides the same fsync. After an I/O failure the error is sticky: the
// durable prefix is unknown, so nothing may be acked on this log again.
func (l *Log) WaitDurable(upTo uint64) error {
	if l.durable.Load() >= upTo {
		return nil
	}
	if l.closed.Load() {
		return ErrClosed
	}
	l.waitMu.Lock()
	defer l.waitMu.Unlock()
	for l.durable.Load() < upTo {
		if l.waitErr != nil {
			return l.waitErr
		}
		if l.closed.Load() {
			return ErrClosed
		}
		// Every park is preceded by a kick, so no waiter relies on one
		// an earlier window consumed. A stale kick (its record was
		// already in the fsync in flight) only closes the next window
		// early — an extra fsync, never a lost one.
		select {
		case l.kickWait <- struct{}{}:
		default:
		}
		l.waitCond.Wait()
	}
	return nil
}

// notifyWaiters wakes WaitDurable parkers after the durable watermark
// moved. Taking waitMu (even without shared state to touch) closes the
// check-then-park race: a waiter that read a stale watermark either
// parks before we acquire waitMu (and gets this broadcast) or acquires
// it after us (and re-reads the fresh watermark).
func (l *Log) notifyWaiters() {
	l.waitMu.Lock()
	l.waitCond.Broadcast()
	l.waitMu.Unlock()
}

// failWaiters makes err sticky for WaitDurable and wakes every parked
// waiter so the whole failed batch — and anything racing it — observes
// the failure instead of hanging on a watermark that will never move.
func (l *Log) failWaiters(err error) {
	l.waitMu.Lock()
	if l.waitErr == nil {
		l.waitErr = err
	}
	l.waitCond.Broadcast()
	l.waitMu.Unlock()
}

// fail records err as the log's sticky I/O failure (first error wins)
// and fans it out to waiters. Caller holds flushMu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.failWaiters(l.err)
	return l.err
}

// appendRecord encodes r onto buf.
func appendRecord(buf []byte, r Record) []byte {
	// Encode in place in the staging buffer: a local scratch array is
	// moved to the heap by escape analysis (the checksum call defeats
	// it) and would cost one allocation per staged record.
	n := len(buf)
	buf = append(buf, make([]byte, RecordLen)...)
	b := buf[n : n+RecordLen]
	binary.LittleEndian.PutUint64(b[0:8], r.LSN)
	binary.LittleEndian.PutUint64(b[8:16], r.Key.Lo)
	binary.LittleEndian.PutUint64(b[16:24], r.Key.Hi)
	binary.LittleEndian.PutUint64(b[24:32], r.Value)
	b[32] = byte(r.Kind)
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[:36], crcTable))
	return buf
}

// parseRecord validates one record and decodes it into r, reporting
// whether it was valid; an invalid record leaves r as it was. Decoding
// in place writes each field once, where a 40-byte Record returned by
// value would be assembled in a stack slot and copied out with loads
// that span its narrower stores (DESIGN §5.4).
func parseRecord(b []byte, r *Record) bool {
	if len(b) < RecordLen {
		return false
	}
	if binary.LittleEndian.Uint32(b[36:40]) != crc32.Checksum(b[:36], crcTable) {
		return false
	}
	kind := core.BatchKind(b[32])
	if kind < core.BatchPut || kind > core.BatchDelete {
		return false
	}
	r.LSN = binary.LittleEndian.Uint64(b[0:8])
	r.Kind = kind
	r.Key = layout.Key{Lo: binary.LittleEndian.Uint64(b[8:16]), Hi: binary.LittleEndian.Uint64(b[16:24])}
	r.Value = binary.LittleEndian.Uint64(b[24:32])
	return true
}

// flushLocked writes the staged buffer to the active segment and, when
// fsync is set, makes it durable. It returns the high-water LSN the
// drain covered: every record with LSN ≤ hw is now in the active
// segment, every later one is still (or will be) staged. Caller holds
// flushMu.
func (l *Log) flushLocked(fsync bool) (hw uint64, err error) {
	if l.err != nil {
		// Re-fan-out so waiters that parked after the original failure
		// (racing appends of the failed batch's era) still observe it.
		l.failWaiters(l.err)
		return 0, l.err
	}
	l.mu.Lock()
	buf := l.buf
	// Hand appenders the spare buffer (the previously flushed one)
	// instead of nil: under load an append almost always lands while
	// the flush is writing, and regrowing from nil would cost one
	// large zeroed allocation per commit window.
	l.buf = l.spare[:0]
	l.spare = nil
	hw = l.lastLSN
	l.mu.Unlock()
	if len(buf) > 0 {
		if _, err := l.f.WriteAt(buf, l.written); err != nil {
			return hw, l.fail(fmt.Errorf("oplog: appending: %w", err))
		}
		l.written += int64(len(buf))
		l.bytesOut.Add(uint64(len(buf)))
		if l.written > l.size {
			if err := l.grow(); err != nil {
				return hw, l.fail(err)
			}
		}
	}
	if fsync {
		start := time.Now()
		if testHookFsyncErr != nil {
			if err := testHookFsyncErr(); err != nil {
				return hw, l.fail(fmt.Errorf("oplog: fsync: %w", err))
			}
		}
		// Only a flush that grew the segment changed its size and block
		// mapping and needs a full fsync; every other one overwrote
		// blocks whose allocation an earlier full fsync made durable.
		full := l.grown
		if testHookSync != nil {
			testHookSync(full)
		}
		var serr error
		if full {
			serr = l.f.Sync()
		} else {
			serr = datasync(l.f)
		}
		if serr != nil {
			return hw, l.fail(fmt.Errorf("oplog: fsync: %w", serr))
		}
		l.grown = false
		l.syncLat.Observe(uint64(time.Since(start)))
		l.fsyncs.Add(1)
		if prev := l.durable.Load(); hw > prev {
			l.batchRec.Observe(hw - prev)
		}
		l.synced = l.written
		l.durable.Store(hw)
		l.notifyWaiters()
	}
	l.mu.Lock()
	l.spare = buf[:0] // flushed: its capacity backs the next window
	l.mu.Unlock()
	return hw, nil
}

// grow zero-fills the active segment from the end of its records up to
// the next whole multiple of PreallocBytes (at least one byte), however
// many steps the flush just crossed, and marks the next sync full.
// Real zero writes, not Truncate: a sparse hole would cost a
// block-mapping metadata commit on the first write into it. Caller
// holds flushMu.
func (l *Log) grow() error {
	step := max(l.cfg.PreallocBytes, 1)
	size := l.written
	if r := size % step; r != 0 {
		size += step - r
	}
	for off := l.written; off < size; {
		n, err := l.f.WriteAt(zeroBlock[:min(size-off, int64(len(zeroBlock)))], off)
		if err != nil {
			return fmt.Errorf("oplog: growing segment: %w", err)
		}
		off += int64(n)
	}
	l.size = size
	l.grown = true
	return nil
}

// LastLSN returns the highest LSN assigned so far (not necessarily
// durable). Only stable while the caller excludes appenders.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// DurableLSN returns the highest LSN known durable.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// Rotate seals the active segment (flushing and fsyncing any staged
// records) and starts a fresh one. The snapshot path calls it inside
// the server's writer-exclusion window, so the sealed segments hold
// exactly the operations the about-to-be-written image covers.
func (l *Log) Rotate() error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	// The drained high-water mark, not a fresh lastLSN read, decides the
	// new segment's start: an AppendBatch racing this rotation may assign
	// hw+1 after the drain, and that record — still staged — will be
	// flushed into the NEW segment, so the new header must claim hw+1
	// or replay would treat the record as a torn tail and drop it.
	hw, err := l.flushLocked(true)
	if err != nil {
		return err
	}
	if testHookRotateAfterDrain != nil {
		testHookRotateAfterDrain()
	}
	start := hw + 1
	seq := l.segs[len(l.segs)-1].seq + 1
	path := segPath(l.base, seq)
	f, err := writeSegHeader(path, seq, start)
	if err != nil {
		return l.fail(err)
	}
	old, oldWritten, oldSize := l.f, l.written, l.size
	l.f = f
	l.written, l.synced, l.size = SegHeaderLen, SegHeaderLen, SegHeaderLen
	l.segs = append(l.segs, segment{path: path, seq: seq, start: start})
	l.rotations.Add(1)
	if oldSize > oldWritten {
		// Give the sealed segment's unused preallocated tail back to the
		// filesystem. Best-effort: a leftover zero tail is replay-inert.
		_ = old.Truncate(oldWritten)
	}
	if err := old.Close(); err != nil {
		return l.fail(fmt.Errorf("oplog: closing sealed segment: %w", err))
	}
	return nil
}

// TruncateThrough deletes every sealed segment whose records are all
// covered by a durable snapshot with oplog mark lsn. The active
// segment always survives. Call only after the covering image has been
// durably published — a crash in between merely leaves covered
// segments behind, which replay skips by LSN.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		last := i == len(l.segs)-1
		// Sealed segment i's records end at start_{i+1}-1; dead
		// segments (unreadable header) hold nothing acked.
		covered := !last && (s.dead || l.segs[i+1].start-1 <= lsn)
		if !covered {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("oplog: truncating: %w", err)
		}
		l.truncated.Add(1)
		removed = true
	}
	l.segs = kept
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// ActivePath returns the active segment's file path. Crash-simulation
// harnesses use it to tear the log's unsynced tail.
func (l *Log) ActivePath() string {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.segs[len(l.segs)-1].path
}

// SyncedSize returns the fsynced byte length of the active segment —
// the prefix a power failure is guaranteed to preserve. Bytes beyond
// it (written but unsynced) may survive, vanish, or tear arbitrarily.
func (l *Log) SyncedSize() int64 {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.synced
}

// WrittenSize returns the byte length the active segment would have if
// every write reached the file (synced or not).
func (l *Log) WrittenSize() int64 {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	_, _ = l.flushLocked(false) // push staged records out; written stays best-known on error
	return l.written
}

// Close flushes and fsyncs staged records and closes the active
// segment. The log cannot be used afterwards. The committer is stopped
// first (outside flushMu, so an in-flight commit finishes rather than
// deadlocks), then the final flush covers whatever it had not yet
// committed, then parked waiters are released: each finds its record
// durable or the log closed — never a hang.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.stopCommitter()
	l.flushMu.Lock()
	_, err := l.flushLocked(true)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.flushMu.Unlock()
	l.notifyWaiters()
	return err
}

// stopCommitter shuts down the committer goroutine and waits for it
// to exit.
func (l *Log) stopCommitter() {
	close(l.stopc)
	<-l.committerDone
}

// Abort closes the active segment's file descriptor without flushing
// or fsyncing anything — the log's on-disk state is left exactly as a
// power failure would find it. Crash-torture harnesses use it to
// abandon a log after a simulated crash (optionally tearing the
// unsynced tail first); everything else wants Close.
func (l *Log) Abort() {
	if l.closed.Swap(true) {
		return
	}
	l.stopCommitter()
	l.flushMu.Lock()
	l.f.Close()
	l.flushMu.Unlock()
	l.notifyWaiters() // parked waiters observe closed, not a hang
}

// scanBufLen is the size of the one buffer Scan reads every segment
// through, so recovery holds at most this much of the log in memory
// however long a segment grows (segments rotate only at snapshots).
const scanBufLen = 1 << 20

// Scan replays the log based at base: every valid record with LSN >
// after is passed to fn, in LSN order. The *Record is decoded in place
// and overwritten by the next record, so fn must copy what it keeps
// and not retain the pointer. It stops at the first torn or
// out-of-sequence record of a segment (records past it were never
// acked — see the package comment) and continues with the next
// segment. Scan never writes, so a crash during replay is recovered by
// simply scanning again. It returns the LSN one past the highest
// observed (the nextLSN a subsequent OpenConfig should use) and the
// number of records passed to fn.
func Scan(base string, after uint64, fn func(*Record) error) (next uint64, replayed int, err error) {
	segs, err := listSegments(base)
	if err != nil {
		return 1, 0, err
	}
	buf := make([]byte, scanBufLen)
	next = 1
	first := true
	for _, s := range segs {
		if s.dead {
			continue
		}
		switch {
		case first:
			next = s.start
			first = false
		case s.start < next:
			// Overlapping LSNs cannot come out of the rotation protocol;
			// refuse to replay rather than double-apply.
			return next, replayed, fmt.Errorf("oplog: segment %s starts at LSN %d, already past %d", s.path, s.start, next)
		case s.start > next:
			// Gap: the previous segment lost an unsynced (thus unacked)
			// tail. Continue from this segment's start.
			next = s.start
		}
		n, cnt, err := scanSegment(s.path, buf, next, after, fn)
		replayed += cnt
		if err != nil {
			return n, replayed, err
		}
		next = n
	}
	return next, replayed, nil
}

// scanSegment replays one segment's records, read through buf and
// expecting the first LSN to be expected; returns the next expected LSN
// after the segment. A record may straddle two reads: its head is
// carried to the front of buf before the next read. Every record is
// decoded into the one Record scanSegment owns.
func scanSegment(path string, buf []byte, expected, after uint64, fn func(*Record) error) (uint64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return expected, 0, fmt.Errorf("oplog: reading segment: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(SegHeaderLen, io.SeekStart); err != nil {
		return expected, 0, fmt.Errorf("oplog: reading segment: %w", err)
	}
	var rec Record
	count, have := 0, 0
	for {
		n, rerr := io.ReadFull(f, buf[have:])
		have += n
		off := 0
		for ; off+RecordLen <= have; off += RecordLen {
			if !parseRecord(buf[off:off+RecordLen], &rec) || rec.LSN != expected {
				// Torn or out-of-sequence tail: everything from here on
				// was never covered by an acked fsync.
				return expected, count, nil
			}
			expected++
			if rec.LSN > after {
				if err := fn(&rec); err != nil {
					return expected, count, err
				}
				count++
			}
		}
		switch rerr {
		case nil:
			have = copy(buf, buf[off:have])
		case io.EOF, io.ErrUnexpectedEOF:
			// The file ended; a partial record left in buf is a torn
			// tail, or a header shorter than SegHeaderLen left no body.
			return expected, count, nil
		default:
			return expected, count, fmt.Errorf("oplog: reading segment: %w", rerr)
		}
	}
}
