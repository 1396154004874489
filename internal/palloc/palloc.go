// Package palloc is a persistent fixed-block allocator over the
// hashtab.Mem interface — the substrate chained hashing needs ("chained
// hashing performs poorly under memory pressure due to frequent memory
// allocation and free calls", §4.1 of the paper; demonstrating that
// claim requires actually having an allocator).
//
// Blocks are allocated out of a contiguous arena, tracked by a bitmap
// of 64-block words. Allocation and free each flip one bitmap bit with
// a read-modify-write of its word, persisted immediately — the word
// write is failure atomic, so the bitmap itself never tears. What a
// crash CAN leave behind is a bit set for a block the application never
// got to link into its structure (an allocation leak) or a bit cleared
// while the block is still referenced (impossible if the application
// unlinks before freeing, the discipline chained hashing follows).
// Rebuild reconstructs the bitmap from the application's reachable-
// block walk, exactly like the paper's Algorithm-4 scan recounts cells.
package palloc

import (
	"fmt"

	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// Pool is a fixed-block persistent allocator. Not safe for concurrent
// use.
type Pool struct {
	mem       hashtab.Mem
	blockSize uint64
	blocks    uint64
	bitmap    uint64 // address of the bitmap words
	arena     uint64 // address of block 0
	cursor    uint64 // next-fit scan position (volatile; any value is safe)
	inUse     uint64 // volatile count (rebuilt by Recover/Open scans)
}

// ErrPoolFull is returned when every block is allocated.
var ErrPoolFull = fmt.Errorf("palloc: pool full")

// New creates a pool of `blocks` blocks of blockSize bytes (rounded up
// to whole words).
func New(mem hashtab.Mem, blockSize, blocks uint64) *Pool {
	if blocks == 0 {
		panic("palloc: need at least one block")
	}
	blockSize = (blockSize + layout.WordSize - 1) &^ uint64(layout.WordSize-1)
	words := (blocks + 63) / 64
	p := &Pool{
		mem:       mem,
		blockSize: blockSize,
		blocks:    blocks,
	}
	p.bitmap = mem.Alloc(words*layout.WordSize, 64)
	p.arena = mem.Alloc(blocks*blockSize, 64)
	return p
}

// Blocks returns the pool capacity in blocks.
func (p *Pool) Blocks() uint64 { return p.blocks }

// InUse returns the number of allocated blocks.
func (p *Pool) InUse() uint64 { return p.inUse }

// Addr returns the address of block i.
func (p *Pool) Addr(i uint64) uint64 { return p.arena + i*p.blockSize }

// Index returns the block index of an address previously returned by
// Alloc/Addr.
func (p *Pool) Index(addr uint64) uint64 {
	if addr < p.arena || (addr-p.arena)%p.blockSize != 0 {
		panic(fmt.Sprintf("palloc: %d is not a block address", addr))
	}
	i := (addr - p.arena) / p.blockSize
	if i >= p.blocks {
		panic(fmt.Sprintf("palloc: block index %d out of range", i))
	}
	return i
}

func (p *Pool) wordOf(i uint64) (addr uint64, bit uint) {
	return p.bitmap + (i/64)*layout.WordSize, uint(i % 64)
}

// allocated reports whether block i's bit is set.
func (p *Pool) allocated(i uint64) bool {
	addr, bit := p.wordOf(i)
	return p.mem.Read8(addr)>>bit&1 == 1
}

// setBit flips block i's bit to v with an atomic persisted word write.
func (p *Pool) setBit(i uint64, v bool) {
	addr, bit := p.wordOf(i)
	w := p.mem.Read8(addr)
	if v {
		w |= 1 << bit
	} else {
		w &^= 1 << bit
	}
	p.mem.AtomicWrite8(addr, w)
	p.mem.Persist(addr, layout.WordSize)
}

// Alloc reserves a free block and returns its address. Next-fit scan
// from the last allocation point keeps the common case O(1).
func (p *Pool) Alloc() (uint64, error) {
	if p.inUse >= p.blocks {
		return 0, ErrPoolFull
	}
	for scanned := uint64(0); scanned < p.blocks; scanned++ {
		i := (p.cursor + scanned) % p.blocks
		if !p.allocated(i) {
			p.setBit(i, true)
			p.cursor = (i + 1) % p.blocks
			p.inUse++
			return p.Addr(i), nil
		}
	}
	return 0, ErrPoolFull
}

// Free releases a block. The application must have unlinked it first:
// after Free returns, the block may be reallocated and overwritten.
func (p *Pool) Free(addr uint64) {
	i := p.Index(addr)
	if !p.allocated(i) {
		panic(fmt.Sprintf("palloc: double free of block %d", i))
	}
	p.setBit(i, false)
	if i < p.cursor {
		p.cursor = i
	}
	p.inUse--
}

// Rebuild reconstructs the bitmap from the application's set of live
// block addresses (the recovery path): bits for unreachable blocks are
// cleared (leaked allocations reclaimed), bits for reachable blocks
// set. Returns the number of leaked blocks reclaimed.
func (p *Pool) Rebuild(live func(yield func(addr uint64))) uint64 {
	reachable := make(map[uint64]bool)
	live(func(addr uint64) { reachable[p.Index(addr)] = true })
	var leaked uint64
	p.inUse = 0
	for i := uint64(0); i < p.blocks; i++ {
		want := reachable[i]
		if want {
			p.inUse++
		}
		if p.allocated(i) != want {
			if !want {
				leaked++
			}
			p.setBit(i, want)
		}
	}
	p.cursor = 0
	return leaked
}

// FootprintBytes reports the persistent bytes the pool occupies (bitmap
// plus arena) — the memory-overhead side of the paper's chained-hashing
// exclusion.
func (p *Pool) FootprintBytes() uint64 {
	words := (p.blocks + 63) / 64
	return words*layout.WordSize + p.blocks*p.blockSize
}
