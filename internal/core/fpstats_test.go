package core

import (
	"reflect"
	"sync"
	"testing"

	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// probeCount is what one probe adds to FingerprintStats.
type probeCount struct{ hits, skips uint64 }

func (p probeCount) add(q probeCount) probeCount {
	return probeCount{p.hits + q.hits, p.skips + q.skips}
}

func fpStatsOf(tab *Table) probeCount {
	h, s := tab.FingerprintStats()
	return probeCount{h, s}
}

// since is the change of FingerprintStats from before to now.
func (p probeCount) since(before probeCount) probeCount {
	return probeCount{p.hits - before.hits, p.skips - before.skips}
}

// fpStatsKeys is how many keys fpStatsTable stores: 59% of the 2048
// cells, so level 2 holds about 15 of each 32-cell group's cells and
// absent-key probes meet tag collisions.
const fpStatsKeys = 1200

// fpStatsTable builds a filtered native table holding keys
// 1..fpStatsKeys, the same table on every call.
func fpStatsTable(t *testing.T) *Table {
	t.Helper()
	tab := mustCreate(t, native.New(1<<22), Options{Cells: 1 << 10, GroupSize: 32, Seed: 11})
	if !tab.FingerprintsEnabled() {
		t.Fatal("native table built without the fingerprint sidecar")
	}
	for k := uint64(1); k <= fpStatsKeys; k++ {
		if err := tab.Insert(layout.Key{Lo: k}, k); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// bruteCount predicts what one probe of k adds to FingerprintStats by
// reading the sidecar one tag byte at a time: nothing when k's level-1
// cell holds it; otherwise every cell of its group up to the first
// that holds k, or the whole group, of which the cells tagged with k's
// tag are hits and the rest skips.
func bruteCount(tab *Table, k layout.Key) probeCount {
	vw := tab.cur()
	i1 := vw.h.Index(k.Lo, k.Hi)
	if vw.tab1.Matches(i1, k) {
		return probeCount{}
	}
	tag := tab.fpTag(k)
	var p probeCount
	j := tab.groupStart(i1)
	for i := j; i < j+tab.gsz; i++ {
		if vw.fpLoad(i) != tag {
			p.skips++
			continue
		}
		p.hits++
		if vw.tab2.Matches(i, k) {
			break
		}
	}
	return p
}

// statsOp is one step of the exact-count sequence: a lookup (kind 0)
// or a mutation.
type statsOp struct {
	kind BatchKind
	key  layout.Key
}

// fpStatsSequence is a fixed mix of level-1 hits, level-2 hits,
// absent-key lookups (one whose group holds a cell with its tag),
// in-place puts, fresh puts and deletes against fpStatsTable.
func fpStatsSequence(t *testing.T, tab *Table) []statsOp {
	t.Helper()
	vw := tab.cur()
	var l1, l2 []layout.Key
	for k := uint64(1); k <= fpStatsKeys; k++ {
		key := layout.Key{Lo: k}
		if vw.tab1.Matches(vw.h.Index(k, 0), key) {
			l1 = append(l1, key)
		} else {
			l2 = append(l2, key)
		}
	}
	absent := func(i uint64) layout.Key { return layout.Key{Lo: 1<<40 + i} }
	var collide layout.Key // absent, but a cell of its group carries its tag
	for i := uint64(100); collide.Lo == 0; i++ {
		if p := bruteCount(tab, absent(i)); p.hits > 0 {
			collide = absent(i)
		}
		if i == 1<<20 {
			t.Fatal("no absent key collides with a stored tag")
		}
	}
	lookup := BatchKind(0)
	return []statsOp{
		{lookup, l1[0]}, {lookup, l1[1]}, {lookup, l1[2]},
		{lookup, l2[0]}, {lookup, l2[1]}, {lookup, l2[2]},
		{lookup, absent(1)}, {lookup, absent(2)}, {lookup, collide},
		{BatchPut, l1[3]}, {BatchPut, l2[3]}, {BatchPut, l2[4]},
		{BatchPut, absent(3)}, {BatchPut, absent(4)}, {BatchPut, absent(5)},
		{lookup, absent(3)}, {lookup, absent(4)},
		{BatchDelete, l2[0]}, {BatchDelete, l2[5]}, {BatchDelete, l1[4]}, {BatchDelete, absent(6)},
		{lookup, l2[0]}, {lookup, l2[5]},
		{BatchPut, collide}, {BatchDelete, collide}, {BatchDelete, l2[1]},
		{lookup, collide}, {lookup, l2[2]},
	}
}

// TestFingerprintStatsExact pins the filter counters' definition: a
// fixed sequence of probes moves FingerprintStats by exactly what a
// brute-force scan of the tag bytes predicts, and by the same amounts
// through the sequential Table, through Concurrent.Lookup with
// single-op ApplyBatch calls, and through Concurrent.Lookup with each
// run of consecutive mutations in one ApplyBatch.
func TestFingerprintStatsExact(t *testing.T) {
	seq := fpStatsTable(t)
	ops := fpStatsSequence(t, seq)

	// The sequential table, against the brute-force prediction.
	want := make([]probeCount, len(ops))
	var total probeCount
	for i, op := range ops {
		want[i] = bruteCount(seq, op.key)
		before := fpStatsOf(seq)
		switch op.kind {
		case 0:
			seq.Lookup(op.key)
		case BatchPut:
			if !seq.Update(op.key, 7) {
				if err := seq.Insert(op.key, 7); err != nil {
					t.Fatal(err)
				}
			}
		case BatchDelete:
			seq.Delete(op.key)
		}
		if got := fpStatsOf(seq).since(before); got != want[i] {
			t.Errorf("op %d (kind %d, key %#x): Table moved the stats by %+v, brute force predicts %+v", i, op.kind, op.key.Lo, got, want[i])
		}
		total = total.add(want[i])
	}
	if total.hits == 0 || total.skips == 0 {
		t.Fatalf("sequence exercised too little of the filter: %+v", total)
	}

	// Concurrent, one op per call.
	c := NewConcurrent(fpStatsTable(t), 4)
	out := make([]BatchResult, len(ops))
	for i, op := range ops {
		before := fpStatsOf(c.t)
		if op.kind == 0 {
			c.Lookup(op.key)
		} else {
			c.ApplyBatch([]BatchOp{{Kind: op.kind, Key: op.key, Value: 7}}, out[:1], nil, nil)
		}
		if got := fpStatsOf(c.t).since(before); got != want[i] {
			t.Errorf("op %d (kind %d, key %#x): Concurrent moved the stats by %+v, Table by %+v", i, op.kind, op.key.Lo, got, want[i])
		}
	}

	// Concurrent, each run of mutations in one ApplyBatch.
	c = NewConcurrent(fpStatsTable(t), 4)
	for i := 0; i < len(ops); {
		before := fpStatsOf(c.t)
		var sum probeCount
		if ops[i].kind == 0 {
			c.Lookup(ops[i].key)
			sum = want[i]
			i++
		} else {
			var batch []BatchOp
			for ; i < len(ops) && ops[i].kind != 0; i++ {
				batch = append(batch, BatchOp{Kind: ops[i].kind, Key: ops[i].key, Value: 7})
				sum = sum.add(want[i])
			}
			c.ApplyBatch(batch, out[:len(batch)], nil, nil)
		}
		if got := fpStatsOf(c.t).since(before); got != sum {
			t.Errorf("ops before %d: Concurrent moved the stats by %+v, Table by %+v", i, got, sum)
		}
	}
	if got := fpStatsOf(c.t); got != total {
		t.Errorf("batched Concurrent totals %+v, Table %+v", got, total)
	}
}

// TestFingerprintStatsConcurrentExact runs four goroutines' probes at
// once — two reading through Concurrent.Lookup, two writing in-place
// puts and absent-key deletes through ApplyBatch — and requires the
// counters to move by exactly the sum of their brute-force references.
// Readers and writers use disjoint stripes, so no read retries and no
// op changes where a key lies: every reference holds throughout.
func TestFingerprintStatsConcurrentExact(t *testing.T) {
	const stripes, passes = 8, 40
	c := NewConcurrent(fpStatsTable(t), stripes)
	var keys [2][]layout.Key // [0]: reader stripes, [1]: writer stripes
	for i := uint64(1); i <= 400; i++ {
		for _, k := range []layout.Key{{Lo: i * 3}, {Lo: 1<<40 + i}} {
			_, si := c.stripeFor(k)
			keys[si*2/stripes] = append(keys[si*2/stripes], k)
		}
	}
	if len(keys[0]) == 0 || len(keys[1]) == 0 {
		t.Fatal("keys do not cover both halves of the stripes")
	}
	var want probeCount
	for _, ks := range keys {
		for _, k := range ks {
			want = want.add(bruteCount(c.t, k))
		}
	}
	want = probeCount{want.hits * 2 * passes, want.skips * 2 * passes}
	before := fpStatsOf(c.t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ks := keys[g/2]
			ops := make([]BatchOp, len(ks))
			out := make([]BatchResult, len(ks))
			var sc BatchScratch
			for p := 0; p < passes; p++ {
				if g < 2 {
					for _, k := range ks {
						c.Lookup(k)
					}
					continue
				}
				for i, k := range ks {
					// A put of a stored key updates it in place; a
					// delete of an absent key finds nothing.
					kind := BatchPut
					if k.Lo >= 1<<40 {
						kind = BatchDelete
					}
					ops[i] = BatchOp{Kind: kind, Key: k, Value: uint64(p)}
				}
				c.ApplyBatch(ops, out, &sc, nil)
			}
		}(g)
	}
	wg.Wait()
	if got := fpStatsOf(c.t).since(before); got != want {
		t.Fatalf("four goroutines moved the stats by %+v, the sum of their references is %+v", got, want)
	}
	if c.t.Len() != fpStatsKeys {
		t.Fatalf("Len = %d after in-place puts and absent deletes, want %d", c.t.Len(), fpStatsKeys)
	}
}

// TestTableCountersOwnCacheLine guards the Table's layout: every
// counter the table writes while serving ops (each sync/atomic field
// but the view pointer) lies at least 64 bytes from each field every op
// reads, and from the Table's end, where the allocator may place
// another object. Bytes 64 apart never share a 64-byte cache line,
// whatever the Table's alignment, so a writer publishing its tally
// never evicts the line another core's next probe reads.
func TestTableCountersOwnCacheLine(t *testing.T) {
	const line = 64
	typ := reflect.TypeOf(Table{})
	field := func(name string) reflect.StructField {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("Table has no field %s", name)
		}
		return f
	}
	// gap is the distance between the nearest bytes of [alo, ahi) and
	// [blo, bhi).
	gap := func(alo, ahi, blo, bhi uintptr) uintptr {
		if alo >= bhi {
			return alo - (bhi - 1)
		}
		return blo - (ahi - 1)
	}
	var counters []reflect.StructField
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.PkgPath() == "sync/atomic" && f.Name != "vp" {
			counters = append(counters, f)
		}
	}
	for _, name := range []string{"fpHits", "fpSkips", "countPersists"} {
		if f := field(name); f.Type.PkgPath() != "sync/atomic" {
			t.Fatalf("Table.%s is a %s, not a sync/atomic counter", name, f.Type)
		}
	}
	for _, c := range counters {
		clo, chi := c.Offset, c.Offset+c.Type.Size()
		for _, name := range []string{"mem", "l", "two", "gsz", "vp"} {
			h := field(name)
			if d := gap(clo, chi, h.Offset, h.Offset+h.Type.Size()); d < line {
				t.Errorf("Table.%s (offset %d) lies %d bytes from Table.%s (offset %d): they can share a cache line", c.Name, c.Offset, d, name, h.Offset)
			}
		}
		if d := typ.Size() - (chi - 1); d < line {
			t.Errorf("Table.%s (offset %d) lies %d bytes from the end of the %d-byte Table", c.Name, c.Offset, d, typ.Size())
		}
	}
}
