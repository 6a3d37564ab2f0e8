package slab

import (
	"math/rand"
	"testing"
)

type rec struct {
	id  uint64
	pad [24]byte
}

func TestSlabAllocFreeReuse(t *testing.T) {
	s := NewSlab[rec]()
	h1, p1 := s.Alloc()
	p1.id = 42
	if got := s.Get(h1); got == nil || got.id != 42 {
		t.Fatalf("Get after Alloc = %v, want id 42", got)
	}
	if s.Len() != 1 || s.Cap() != 1 || s.FreeLen() != 0 {
		t.Fatalf("len/cap/free = %d/%d/%d, want 1/1/0", s.Len(), s.Cap(), s.FreeLen())
	}
	if !s.Free(h1) {
		t.Fatal("Free(live handle) = false")
	}
	if s.Get(h1) != nil {
		t.Fatal("Get after Free should be nil")
	}
	if s.Free(h1) {
		t.Fatal("double Free should report false")
	}
	// Reuse must recycle the slot but invalidate the old handle.
	h2, p2 := s.Alloc()
	if h2 == h1 {
		t.Fatal("recycled slot must mint a new generation")
	}
	if p2.id != 0 {
		t.Fatal("recycled record not zeroed")
	}
	if s.Get(h1) != nil {
		t.Fatal("stale handle resolved after slot reuse")
	}
	if s.Cap() != 1 {
		t.Fatalf("Cap = %d after reuse, want 1", s.Cap())
	}
}

func TestSlabZeroHandle(t *testing.T) {
	s := NewSlab[rec]()
	var zero Handle
	if !zero.IsZero() {
		t.Fatal("zero Handle not IsZero")
	}
	if s.Get(0) != nil || s.Free(0) {
		t.Fatal("zero handle must not resolve or free")
	}
}

func TestSlabStablePointers(t *testing.T) {
	s := NewSlab[rec]()
	handles := make([]Handle, 0, 10*chunkSize)
	ptrs := make([]*rec, 0, 10*chunkSize)
	for i := 0; i < 10*chunkSize; i++ {
		h, p := s.Alloc()
		p.id = uint64(i)
		handles = append(handles, h)
		ptrs = append(ptrs, p)
	}
	for i, h := range handles {
		if got := s.Get(h); got != ptrs[i] {
			t.Fatalf("record %d moved: Get=%p want %p", i, got, ptrs[i])
		}
		if ptrs[i].id != uint64(i) {
			t.Fatalf("record %d corrupted: id=%d", i, ptrs[i].id)
		}
	}
}

func TestShardedRouting(t *testing.T) {
	s := NewSharded[rec](8)
	type entry struct {
		h Handle
		v uint64
	}
	var entries []entry
	for i := 0; i < 1000; i++ {
		shard := i % 8
		h, p := s.Alloc(shard)
		if h.Shard() != shard {
			t.Fatalf("handle shard = %d, want %d", h.Shard(), shard)
		}
		p.id = uint64(i)
		entries = append(entries, entry{h, uint64(i)})
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	for _, e := range entries {
		if got := s.Get(e.h); got == nil || got.id != e.v {
			t.Fatalf("Get(%x) = %v, want id %d", e.h, got, e.v)
		}
	}
	for _, e := range entries {
		if !s.Free(e.h) {
			t.Fatalf("Free(%x) = false", e.h)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after free-all = %d, want 0", s.Len())
	}
	for _, a := range s.Audit() {
		if a.Imbalance() != 0 {
			t.Fatalf("shard %d imbalance %d: %+v", a.Shard, a.Imbalance(), a)
		}
		if a.Live != 0 || a.Free != a.Cap {
			t.Fatalf("shard %d free-list did not fully recycle: %+v", a.Shard, a)
		}
	}
}

// TestIndexAgainstMap drives the open-addressing table and a reference map
// through the same randomized Put/Delete/Get history and requires
// identical answers throughout, catching backward-shift deletion bugs.
func TestIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewIndex[uint32](HashUint32)
	ref := map[uint32]Handle{}
	const keySpace = 512 // small space forces heavy collision + reuse
	for op := 0; op < 200000; op++ {
		k := uint32(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0:
			h := Handle(rng.Uint64() | 1) // non-zero
			x.Put(k, h)
			ref[k] = h
		case 1:
			got := x.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			got := x.Get(k)
			if got != ref[k] {
				t.Fatalf("op %d: Get(%d) = %x, want %x", op, k, got, ref[k])
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, x.Len(), len(ref))
		}
	}
	// Final sweep: every surviving key must still resolve.
	for k, want := range ref {
		if got := x.Get(k); got != want {
			t.Fatalf("final Get(%d) = %x, want %x", k, got, want)
		}
	}
	seen := 0
	x.Range(func(k uint32, h Handle) bool {
		if ref[k] != h {
			t.Fatalf("Range yielded (%d,%x), want %x", k, h, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
	}
}

func TestIndexStringKeys(t *testing.T) {
	x := NewIndex[string](HashString)
	h1, h2 := Handle(1), Handle(2)
	x.Put("4669210000000001", h1)
	x.Put("4669210000000002", h2)
	if x.Get("4669210000000001") != h1 || x.Get("4669210000000002") != h2 {
		t.Fatal("string index lookup failed")
	}
	if x.Get("missing") != 0 {
		t.Fatal("missing key should return zero handle")
	}
	if !x.Delete("4669210000000001") || x.Get("4669210000000001") != 0 {
		t.Fatal("delete failed")
	}
}

func TestSymsRoundTrip(t *testing.T) {
	var s Syms[string]
	if s.ID("") != 0 {
		t.Fatal(`ID("") must be 0`)
	}
	if s.Val(0) != "" {
		t.Fatal("Val(0) must be zero value")
	}
	a := s.ID("VLR-1")
	b := s.ID("HLR")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad symbols: %d %d", a, b)
	}
	if s.ID("VLR-1") != a {
		t.Fatal("re-intern changed symbol")
	}
	if s.Val(a) != "VLR-1" || s.Val(b) != "HLR" {
		t.Fatal("Val round-trip failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Val(99) != "" {
		t.Fatal("out-of-range symbol must return zero value")
	}
}

func TestHandleFields(t *testing.T) {
	h := makeHandle(7, 12345, 0x00abcdef)
	if h.Shard() != 7 || h.slot() != 12345 || h.gen() != 0x00abcdef {
		t.Fatalf("field round-trip failed: shard=%d slot=%d gen=%x",
			h.Shard(), h.slot(), h.gen())
	}
}

// TestLocateMatchesReference checks the bit-arithmetic slot→chunk mapping
// against a walk over the chunk lengths, for every slot of the doubling
// chunks and of the first three fixed-size chunks after them.
func TestLocateMatchesReference(t *testing.T) {
	chunk, off := 0, 0
	for slot := uint32(0); slot < growSlots+3*chunkSize; slot++ {
		c, o := locate(slot)
		if int(c) != chunk || int(o) != off {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", slot, c, o, chunk, off)
		}
		if off++; off == chunkLen(chunk) {
			chunk, off = chunk+1, 0
		}
	}
	if chunk != growChunks+3 {
		t.Fatalf("walked %d chunks, want %d", chunk, growChunks+3)
	}
}

// TestSlabChunkBoundaries fills a slab across every chunk boundary (16, 48,
// 112, ..., 2032, 3056), then frees and reallocates every slot: each live
// record keeps its address, and no handle of the first occupancy resolves
// or frees once its slot is reused.
func TestSlabChunkBoundaries(t *testing.T) {
	s := NewSlab[rec]()
	n := growSlots + 2*chunkSize + 1
	handles := make([]Handle, n)
	ptrs := make([]*rec, n)
	for i := 0; i < n; i++ {
		h, p := s.Alloc()
		p.id = uint64(i)
		handles[i], ptrs[i] = h, p
		if c, _ := locate(uint32(i)); len(s.chunks) != int(c)+1 {
			t.Fatalf("slot %d: %d chunks open, want %d", i, len(s.chunks), c+1)
		}
	}
	for i, h := range handles {
		if got := s.Get(h); got != ptrs[i] || got.id != uint64(i) {
			t.Fatalf("record %d moved or changed: Get=%p want %p", i, got, ptrs[i])
		}
	}
	for _, h := range handles {
		s.Free(h)
	}
	for i := 0; i < n; i++ {
		h, p := s.Alloc()
		if h == handles[h.slot()] {
			t.Fatalf("slot %d reissued its old handle", h.slot())
		}
		if p != ptrs[h.slot()] {
			t.Fatalf("slot %d moved: %p want %p", h.slot(), p, ptrs[h.slot()])
		}
	}
	for i, h := range handles {
		if s.Get(h) != nil || s.Free(h) {
			t.Fatalf("stale handle of slot %d resolved after reuse", i)
		}
	}
	if a := s.Audit(); a.Against(n) != 0 || a.Cap != n {
		t.Fatalf("audit %+v, want %d live of %d", a, n, n)
	}
}

func TestSlabFirstAllocOneSmallChunk(t *testing.T) {
	s := NewSlab[rec]()
	if len(s.chunks) != 0 {
		t.Fatalf("fresh slab holds %d chunks", len(s.chunks))
	}
	s.Alloc()
	if len(s.chunks) != 1 || len(s.chunks[0]) != firstChunk || firstChunk != 16 {
		t.Fatalf("first Alloc made chunks %d (first %d records), want one of 16",
			len(s.chunks), len(s.chunks[0]))
	}
}
