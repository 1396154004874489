package hashtab

import (
	"testing"

	"grouphash/internal/layout"
	"grouphash/internal/native"
)

// benchSink keeps benchmark loop results live.
var benchSink uint64

// BenchmarkCellsCommitRandom reads the commit word of random cells of
// a 2^22-cell native array (64 MiB) two ways: through Cells.Commit
// (cells) and as a bare Mem.Read8 of the same address (read8). Both
// probe the same index sequence, a multiplicative hash of the loop
// counter, so no load depends on the one before it and the core may
// overlap their misses. The gap between the two is what the accessor
// adds per access; see TestCellsPassedByPointer for the by-value
// receiver that once made it four times the read itself.
func BenchmarkCellsCommitRandom(b *testing.B) {
	const bits = 22
	l := layout.ForKeySize(8)
	var mem Mem = native.New(l.CellSize() << bits)
	c := NewCells(mem, l, 1<<bits)
	at := func(i int) uint64 { return (uint64(i) * 0x9e3779b97f4a7c15) >> (64 - bits) }
	b.Run("cells", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += c.Commit(at(i))
		}
		benchSink = sum
	})
	b.Run("read8", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += mem.Read8(l.CommitOff(c.Base + at(i)*l.CellSize()))
		}
		benchSink = sum
	})
}
