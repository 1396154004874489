package oplog

import (
	"errors"
	"strings"
	"testing"

	"grouphash/internal/core"
	"grouphash/internal/layout"
)

// recorder is an Applier that keeps a copy of every batch it is handed
// and fails the op whose key is failKey.
type recorder struct {
	batches [][]core.BatchOp
	failKey uint64
}

func (r *recorder) ApplyBatch(ops []core.BatchOp, out []core.BatchResult, _ *core.BatchScratch, _ func([]int)) {
	r.batches = append(r.batches, append([]core.BatchOp(nil), ops...))
	for i := range ops {
		out[i] = core.BatchResult{}
		if ops[i].Key.Lo == r.failKey {
			out[i].Err = errors.New("refused")
		}
	}
}

// TestReplayBatches pins Replay's shape: records past after reach the
// applier in log order, in batches of 256, with each op mapped back to
// the kind OpFor logged it as; the first failed op names its LSN.
func TestReplayBatches(t *testing.T) {
	b := base(t)
	l, err := OpenConfig(b, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []core.BatchKind{core.BatchPut, core.BatchInsert, core.BatchDelete}
	recs := make([]Record, 600)
	for i := range recs {
		recs[i] = Record{Op: OpFor(kinds[i%3]), Key: layout.Key{Lo: uint64(i + 1)}, Value: uint64(i)}
	}
	if err := l.WaitDurable(l.AppendBatch(recs) + 599); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var r recorder
	applied, next, err := Replay(&r, b, 40)
	if err != nil || applied != 560 || next != 601 {
		t.Fatalf("Replay after 40 = (%d, %d, %v), want (560, 601, nil)", applied, next, err)
	}
	var sizes []int
	lsn := uint64(41)
	for _, batch := range r.batches {
		sizes = append(sizes, len(batch))
		for _, op := range batch {
			if op.Key.Lo != lsn || op.Kind != kinds[(lsn-1)%3] || op.Value != lsn-1 {
				t.Fatalf("op %+v at LSN %d, want key %d kind %d", op, lsn, lsn, kinds[(lsn-1)%3])
			}
			lsn++
		}
	}
	if len(sizes) != 3 || sizes[0] != 256 || sizes[1] != 256 || sizes[2] != 48 {
		t.Fatalf("batch sizes %v, want [256 256 48]", sizes)
	}

	applied, _, err = Replay(&recorder{failKey: 300}, b, 0)
	if err == nil || !strings.Contains(err.Error(), "record 300") || applied != 256 {
		t.Fatalf("Replay with record 300 refused = (%d, %v), want 256 applied and an error naming record 300", applied, err)
	}

	applied, next, err = Replay(&recorder{}, b, 900)
	if err != nil || applied != 0 || next != 901 {
		t.Fatalf("Replay after 900 = (%d, %d, %v), want (0, 901, nil)", applied, next, err)
	}
}
