// Package slab provides the arena-backed storage primitives behind the
// million-subscriber core: chunked value slabs with generational free-lists,
// open-addressing index tables from identity keys to slab handles, and
// small interners for low-cardinality values (node names, location areas).
//
// The design goal is a bounded, measurable bytes/subscriber figure. A
// subscriber context lives by value inside a slab chunk — no per-record
// heap object, no interior pointers for the GC to trace — and every lookup
// structure that used to be a `map[K]*T` becomes an Index mapping a
// pointer-free key to a Handle. The slab idiom (index-based records with a
// free-list) is the same one the event heap in internal/sim and the ss7
// timer records already use; this package generalises it with generation
// tags so a stale handle can never resurrect a recycled slot.
package slab

import "math/bits"

// Handle names one live slot in a Slab. The packed layout is
//
//	bits 40..63  generation (24 bits, odd while the slot is live)
//	bits 32..39  shard index (8 bits; always 0 outside a Sharded set)
//	bits  0..31  slot index + 1 within the slab
//
// The +1 on the slot index keeps the zero Handle permanently invalid, so
// Index tables can use 0 as their empty marker and callers can use the
// zero value as "no record".
type Handle uint64

const (
	genBits   = 24
	genMask   = 1<<genBits - 1
	shardBits = 8
	// MaxShards is the largest shard count a Sharded slab supports.
	MaxShards = 1 << shardBits
)

// IsZero reports whether the handle is the invalid zero value.
func (h Handle) IsZero() bool { return h == 0 }

// Shard returns the shard index encoded in the handle.
func (h Handle) Shard() int { return int(h>>32) & (MaxShards - 1) }

func (h Handle) slot() uint32 { return uint32(h) - 1 }

func (h Handle) gen() uint32 { return uint32(h>>40) & genMask }

func makeHandle(shard int, slot uint32, gen uint32) Handle {
	return Handle(uint64(gen&genMask)<<40 | uint64(shard)<<32 | uint64(slot+1))
}

// Chunk geometry. A slab's chunks grow geometrically from firstChunk
// records, doubling up to chunkSize, and every later chunk holds chunkSize
// records: 16, 32, 64, 128, 256, 512, 1024, 1024, ... A store holding a
// handful of records therefore pays for a handful of slots, while a
// million-record store still grows in fixed 1,024-record steps. Chunks are
// allocated whole and never move, so a *T returned by Alloc or Get stays
// valid until the slot is freed — no matter how much the slab grows
// afterwards.
const (
	firstChunkLog = 4
	chunkSizeLog  = 10
	firstChunk    = 1 << firstChunkLog
	chunkSize     = 1 << chunkSizeLog
	// growChunks and growSlots are the number of doubling chunks
	// (16 .. 512) and the slots they hold together (1,008).
	growChunks = chunkSizeLog - firstChunkLog
	growSlots  = chunkSize - firstChunk
)

// locate maps a slot index to its chunk and the offset within it. In the
// doubling chunks, slot+firstChunk has its top bit at position
// chunk+firstChunkLog and the remaining bits are the offset; past them,
// chunks are a fixed chunkSize wide.
func locate(slot uint32) (chunk, off uint32) {
	if slot < growSlots {
		x := slot + firstChunk
		top := uint32(bits.Len32(x)) - 1
		return top - firstChunkLog, x - 1<<top
	}
	slot -= growSlots
	return growChunks + slot>>chunkSizeLog, slot & (chunkSize - 1)
}

// chunkLen is the record count of the given chunk.
func chunkLen(chunk int) int {
	if chunk < growChunks {
		return firstChunk << chunk
	}
	return chunkSize
}

// Slab is an arena of T records with a generational free-list. The zero
// value is not usable; use NewSlab or Sharded.
type Slab[T any] struct {
	shard  int
	chunks [][]T
	// gens holds one generation counter per slot. Odd = live, even =
	// free; Alloc and Free each advance the counter, so a Handle minted
	// for a previous occupancy of the slot fails validation forever
	// (modulo 24-bit wrap, ~8M reuse cycles of one slot).
	gens []uint32
	free []uint32
	live int
}

// NewSlab returns an empty slab.
func NewSlab[T any]() *Slab[T] { return &Slab[T]{} }

// at returns the record stored in a slot.
func (s *Slab[T]) at(slot uint32) *T {
	c, off := locate(slot)
	return &s.chunks[c][off]
}

// Alloc returns a handle to a zeroed record. The pointer stays valid until
// Free is called on the handle.
func (s *Slab[T]) Alloc() (Handle, *T) {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = uint32(len(s.gens))
		if c, _ := locate(slot); int(c) == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, chunkLen(int(c))))
		}
		s.gens = append(s.gens, 0)
	}
	s.gens[slot]++ // even -> odd: live
	s.live++
	p := s.at(slot)
	var zero T
	*p = zero
	return makeHandle(s.shard, slot, s.gens[slot]), p
}

// Get resolves a handle to its record, or nil if the handle is zero, stale
// (the slot was freed or recycled since the handle was minted), or out of
// range. Generation validation makes Get the staleness check: callers that
// previously compared stored pointers to detect superseded records now
// just test Get for nil.
func (s *Slab[T]) Get(h Handle) *T {
	if h == 0 {
		return nil
	}
	slot := h.slot()
	if int(slot) >= len(s.gens) {
		return nil
	}
	g := s.gens[slot]
	if g&1 == 0 || g&genMask != h.gen() {
		return nil
	}
	return s.at(slot)
}

// Free releases the slot behind a handle, zeroing the record so any heap
// references it held (strings, slices) are released to the GC. It reports
// whether the handle was live; freeing a stale or zero handle is a no-op.
func (s *Slab[T]) Free(h Handle) bool {
	p := s.Get(h)
	if p == nil {
		return false
	}
	slot := h.slot()
	var zero T
	*p = zero
	s.gens[slot]++ // odd -> even: free
	s.live--
	s.free = append(s.free, slot)
	return true
}

// Len returns the number of live records.
func (s *Slab[T]) Len() int { return s.live }

// Cap returns the number of slots ever handed out — live plus free. The
// chunks behind them may hold more, not yet used, records.
func (s *Slab[T]) Cap() int { return len(s.gens) }

// FreeLen returns the current free-list depth.
func (s *Slab[T]) FreeLen() int { return len(s.free) }

// Audit returns the slab's occupancy accounting.
func (s *Slab[T]) Audit() ShardAudit {
	return ShardAudit{Shard: s.shard, Live: s.live, Free: len(s.free), Cap: len(s.gens)}
}

// Sharded is a fixed-fan-out set of slabs addressed through one Handle
// space: the handle's shard bits route Get and Free to the owning shard.
// Sharding only partitions storage; it buys no concurrency, since the
// owner still serialises every access under its own lock. The network
// elements therefore keep one Slab per store — each shard's first insert
// would otherwise pay for its own first chunk.
type Sharded[T any] struct {
	shards []Slab[T]
}

// NewSharded returns a sharded slab with n shards (1 <= n <= MaxShards).
func NewSharded[T any](n int) *Sharded[T] {
	if n < 1 || n > MaxShards {
		panic("slab: shard count out of range")
	}
	s := &Sharded[T]{shards: make([]Slab[T], n)}
	for i := range s.shards {
		s.shards[i].shard = i
	}
	return s
}

// NumShards returns the shard fan-out.
func (s *Sharded[T]) NumShards() int { return len(s.shards) }

// Alloc allocates a zeroed record in the given shard.
func (s *Sharded[T]) Alloc(shard int) (Handle, *T) {
	return s.shards[shard].Alloc()
}

// Get resolves a handle in whichever shard minted it.
func (s *Sharded[T]) Get(h Handle) *T {
	if h == 0 {
		return nil
	}
	sh := h.Shard()
	if sh >= len(s.shards) {
		return nil
	}
	return s.shards[sh].Get(h)
}

// Free releases the record behind a handle.
func (s *Sharded[T]) Free(h Handle) bool {
	if h == 0 {
		return false
	}
	sh := h.Shard()
	if sh >= len(s.shards) {
		return false
	}
	return s.shards[sh].Free(h)
}

// Len returns the live-record count across all shards.
func (s *Sharded[T]) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}

// ShardAudit is one slab's occupancy accounting. In a healthy slab
// Cap == Live + Free; any difference means slots have been lost to the
// free-list (a leak inside the slab itself, distinct from a node
// forgetting to Free a handle, which shows up as Live disagreeing with the
// node's own index count — see Against).
type ShardAudit struct {
	Shard int
	Live  int
	Free  int
	Cap   int
}

// Imbalance returns the number of slots unaccounted for in this shard.
func (a ShardAudit) Imbalance() int { return abs(a.Cap - a.Live - a.Free) }

// Against returns Imbalance plus the distance between Live and the number
// of records the owner's index resolves: zero when the free-list balances
// and every live record is indexed exactly once.
func (a ShardAudit) Against(indexed int) int { return a.Imbalance() + abs(a.Live-indexed) }

func abs(d int) int {
	if d < 0 {
		return -d
	}
	return d
}

// Audit returns per-shard occupancy counters for free-list integrity
// checks.
func (s *Sharded[T]) Audit() []ShardAudit {
	out := make([]ShardAudit, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].Audit()
	}
	return out
}
