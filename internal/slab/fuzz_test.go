package slab

import "testing"

// FuzzSlab decodes the input into a history of slab operations, two bytes
// each: an op kind and an argument. Alloc takes arg%64+1 records at once so
// short inputs still cross several chunk boundaries; Free, Get and the
// stale probe pick their target at arg/256 of the way along the live or
// freed list. Every result is checked against a model of the live records,
// and after each operation the audit must balance against the model, every
// live record must sit at the address Alloc returned with the value
// written there, and no freed handle may resolve or free again.
func FuzzSlab(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		type entry struct {
			h  Handle
			p  *rec
			id uint64
		}
		s := NewSlab[rec]()
		var live []entry
		var dead []Handle
		pick := func(arg byte, n int) int { return int(arg) * n / 256 }
		next := uint64(1)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch {
			case op == 0:
				for k := 0; k <= int(arg%64); k++ {
					h, p := s.Alloc()
					if h.IsZero() || *p != (rec{}) {
						t.Fatalf("op %d: Alloc = %x with record %+v, want a zeroed record", i/2, h, *p)
					}
					p.id = next
					live = append(live, entry{h, p, next})
					next++
				}
			case op == 1 && len(live) > 0:
				j := pick(arg, len(live))
				if !s.Free(live[j].h) {
					t.Fatalf("op %d: Free(live %x) = false", i/2, live[j].h)
				}
				dead = append(dead, live[j].h)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case op == 2 && len(live) > 0:
				e := live[pick(arg, len(live))]
				if got := s.Get(e.h); got != e.p {
					t.Fatalf("op %d: Get(%x) = %p, want %p", i/2, e.h, got, e.p)
				}
			case op == 3 && len(dead) > 0:
				h := dead[pick(arg, len(dead))]
				if s.Get(h) != nil || s.Free(h) {
					t.Fatalf("op %d: stale handle %x resolved", i/2, h)
				}
			}
			if a := s.Audit(); a.Against(len(live)) != 0 {
				t.Fatalf("op %d: audit %+v against %d live records", i/2, a, len(live))
			}
			for _, e := range live {
				if got := s.Get(e.h); got != e.p || got.id != e.id {
					t.Fatalf("op %d: record %x moved or changed", i/2, e.h)
				}
			}
			for _, h := range dead {
				if s.Get(h) != nil {
					t.Fatalf("op %d: freed handle %x resurrected", i/2, h)
				}
			}
		}
	})
}
