package cache

import (
	"testing"
	"testing/quick"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

func id(l, e int) moe.ExpertID { return moe.ExpertID{Layer: l, Index: e} }

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative capacity should panic")
			}
		}()
		New(-1, NewLRU())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy should panic")
			}
		}()
		New(4, nil)
	}()
}

// TestZeroCapacityCache pins the degenerate zero-cache baseline: every
// lookup misses and every insert fails, without panicking.
func TestZeroCapacityCache(t *testing.T) {
	c := New(0, NewLRU())
	if c.Lookup(id(0, 1)) {
		t.Fatal("zero-capacity cache cannot hit")
	}
	if _, ok := c.Insert(id(0, 1), nil); ok {
		t.Fatal("zero-capacity cache cannot admit")
	}
	if c.Pin(id(0, 1)) {
		t.Fatal("zero-capacity cache cannot pin")
	}
	if n := c.Warm([]moe.ExpertID{id(0, 1), id(0, 2)}); n != 0 {
		t.Fatalf("zero-capacity cache warmed %d experts", n)
	}
	if c.HitRate() != 0 {
		t.Fatalf("hit rate %v, want 0", c.HitRate())
	}
}

func TestInsertAndLookup(t *testing.T) {
	c := New(2, NewLRU())
	if c.Lookup(id(0, 1)) {
		t.Fatal("empty cache should miss")
	}
	if _, ok := c.Insert(id(0, 1), nil); !ok {
		t.Fatal("insert into empty cache failed")
	}
	if !c.Lookup(id(0, 1)) {
		t.Fatal("inserted expert should hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestInsertIdempotent(t *testing.T) {
	c := New(2, NewLRU())
	c.Insert(id(0, 1), nil)
	ev, ok := c.Insert(id(0, 1), nil)
	if !ok || len(ev) != 0 {
		t.Fatal("re-inserting resident expert should be a no-op")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, NewLRU())
	c.Insert(id(0, 1), nil)
	c.Insert(id(0, 2), nil)
	c.Lookup(id(0, 1)) // 1 is now more recent than 2
	ev, ok := c.Insert(id(0, 3), nil)
	if !ok || len(ev) != 1 || ev[0] != id(0, 2) {
		t.Fatalf("LRU should evict 0.2: evicted=%v ok=%v", ev, ok)
	}
	if !c.Contains(id(0, 1)) || !c.Contains(id(0, 3)) {
		t.Fatal("wrong residents after eviction")
	}
}

func TestLFUEviction(t *testing.T) {
	c := New(2, NewLFU())
	c.Insert(id(0, 1), nil)
	c.Insert(id(0, 2), nil)
	c.Lookup(id(0, 1))
	c.Lookup(id(0, 1))
	c.Lookup(id(0, 2))
	ev, _ := c.Insert(id(0, 3), nil)
	if len(ev) != 1 || ev[0] != id(0, 2) {
		t.Fatalf("LFU should evict less-used 0.2, got %v", ev)
	}
}

func TestLFUTieBreaksByRecency(t *testing.T) {
	p := NewLFU()
	p.Admit(id(0, 1))
	p.Admit(id(0, 2)) // same count; 1 is older
	if v := p.Victim([]moe.ExpertID{id(0, 1), id(0, 2)}); v != id(0, 1) {
		t.Fatalf("LFU tie should evict older, got %v", v)
	}
}

func TestProtectedNeverEvicted(t *testing.T) {
	c := New(2, NewLRU())
	c.Insert(id(0, 1), nil)
	c.Insert(id(0, 2), nil)
	protect := func(e moe.ExpertID) bool { return e == id(0, 1) }
	ev, ok := c.Insert(id(0, 3), protect)
	if !ok || len(ev) != 1 || ev[0] != id(0, 2) {
		t.Fatalf("protected expert evicted: %v", ev)
	}
	// Everything protected: insert must fail gracefully.
	all := func(moe.ExpertID) bool { return true }
	if _, ok := c.Insert(id(0, 4), all); ok {
		t.Fatal("insert should fail when all residents are protected")
	}
	if c.Len() != 2 {
		t.Fatalf("failed insert changed cache size: %d", c.Len())
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c := New(2, NewLRU())
	if !c.Pin(id(0, 1)) {
		t.Fatal("pin failed")
	}
	c.Insert(id(0, 2), nil)
	ev, ok := c.Insert(id(0, 3), nil)
	if !ok || len(ev) != 1 || ev[0] != id(0, 2) {
		t.Fatalf("pinned expert should survive: %v", ev)
	}
	if !c.Pinned(id(0, 1)) || !c.Contains(id(0, 1)) {
		t.Fatal("pinned expert missing")
	}
	// A full cache of pins rejects further pins and inserts.
	c2 := New(1, NewLRU())
	c2.Pin(id(0, 1))
	if c2.Pin(id(0, 2)) {
		t.Fatal("pin into pin-full cache should fail")
	}
	if _, ok := c2.Insert(id(0, 3), nil); ok {
		t.Fatal("insert into pin-full cache should fail")
	}
}

func TestWarmRespectsCapacity(t *testing.T) {
	c := New(3, NewLRU())
	ids := []moe.ExpertID{id(0, 1), id(0, 2), id(0, 2), id(0, 3), id(0, 4)}
	n := c.Warm(ids)
	if n != 3 || c.Len() != 3 {
		t.Fatalf("warm admitted %d, len %d", n, c.Len())
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("warm must not touch statistics")
	}
}

func TestResetStats(t *testing.T) {
	c := New(2, NewLRU())
	c.Lookup(id(0, 1))
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestResidentSnapshot(t *testing.T) {
	c := New(4, NewLRU())
	c.Insert(id(0, 1), nil)
	c.Insert(id(1, 2), nil)
	rs := c.Resident()
	if len(rs) != 2 {
		t.Fatalf("resident = %v", rs)
	}
	seen := map[moe.ExpertID]bool{}
	for _, r := range rs {
		seen[r] = true
	}
	if !seen[id(0, 1)] || !seen[id(1, 2)] {
		t.Fatalf("resident snapshot wrong: %v", rs)
	}
}

// Property: the cache never exceeds capacity and never evicts pinned
// experts, under arbitrary operation sequences and all three policies.
func TestCacheInvariantsQuick(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		rng := stats.NewRNG(seed)
		policies := []Policy{NewLRU(), NewLFU(), NewMRS(0.4, 12)}
		p := policies[rng.Intn(len(policies))]
		cap := 1 + rng.Intn(8)
		c := New(cap, p)
		var pinned []moe.ExpertID
		for _, op := range ops {
			e := id(int(op)%4, int(op/4)%16)
			switch op % 3 {
			case 0:
				c.Lookup(e)
			case 1:
				c.Insert(e, nil)
			case 2:
				if len(pinned) < cap-1 && c.Pin(e) {
					pinned = append(pinned, e)
				}
			}
			if c.Len() > cap {
				return false
			}
			for _, pe := range pinned {
				if !c.Contains(pe) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
