package cache

import (
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

func TestNewMultiPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("no shards", func() { NewMulti() })
	mustPanic("nil shard", func() { NewMulti(New(1, NewLRU()), nil) })
}

// Differential test: a one-shard Multi must behave exactly like the
// bare Cache it wraps on a random operation sequence — the 1-GPU
// degenerate case the engine refactor relies on.
func TestMultiSingleShardMatchesCache(t *testing.T) {
	rng := stats.NewRNG(41)
	single := New(4, NewLRU())
	multi := NewMulti(New(4, NewLRU()))
	id := func(n int) moe.ExpertID { return moe.ExpertID{Layer: n % 3, Index: n % 7} }

	var warm []moe.ExpertID
	for n := 0; n < 6; n++ {
		warm = append(warm, id(n))
	}
	if got, want := multi.Warm(warm), single.Warm(warm); got != want {
		t.Fatalf("Warm admitted %d, cache admitted %d", got, want)
	}

	for op := 0; op < 500; op++ {
		x := id(rng.Intn(21))
		switch rng.Intn(3) {
		case 0:
			if got, want := multi.Lookup(x, 0), single.Lookup(x); got != want {
				t.Fatalf("op %d: Lookup(%v) = %v, cache says %v", op, x, got, want)
			}
		case 1:
			_, gotOK := multi.Insert(x, 0, Guard{})
			_, wantOK := single.Insert(x, Guard{})
			if gotOK != wantOK {
				t.Fatalf("op %d: Insert(%v) ok = %v, cache says %v", op, x, gotOK, wantOK)
			}
		case 2:
			if got, want := multi.Contains(x), single.Contains(x); got != want {
				t.Fatalf("op %d: Contains(%v) = %v, cache says %v", op, x, got, want)
			}
		}
	}
	if multi.Hits() != single.Hits() || multi.Misses() != single.Misses() {
		t.Fatalf("stats diverged: multi %d/%d, cache %d/%d",
			multi.Hits(), multi.Misses(), single.Hits(), single.Misses())
	}
	if multi.Len() != single.Len() || multi.Capacity() != single.Capacity() {
		t.Fatalf("occupancy diverged: multi %d/%d, cache %d/%d",
			multi.Len(), multi.Capacity(), single.Len(), single.Capacity())
	}
}

func TestMultiOwnerAndAttribution(t *testing.T) {
	m := NewMulti(New(2, NewLRU()), New(2, NewLRU()))
	a := moe.ExpertID{Layer: 0, Index: 0}
	b := moe.ExpertID{Layer: 0, Index: 1}
	if _, ok := m.Insert(a, 0, Guard{}); !ok {
		t.Fatal("insert on shard 0 failed")
	}
	if _, ok := m.Insert(b, 1, Guard{}); !ok {
		t.Fatal("insert on shard 1 failed")
	}
	if d, ok := m.Owner(a); !ok || d != 0 {
		t.Fatalf("Owner(a) = %d,%v", d, ok)
	}
	if d, ok := m.Owner(b); !ok || d != 1 {
		t.Fatalf("Owner(b) = %d,%v", d, ok)
	}

	// Hit on b attributes to shard 1; miss with home 1 attributes there.
	if !m.Lookup(b, 0) {
		t.Fatal("lookup of resident expert missed")
	}
	if m.Lookup(moe.ExpertID{Layer: 9, Index: 9}, 1) {
		t.Fatal("lookup of absent expert hit")
	}
	if m.Shard(0).Hits() != 0 || m.Shard(1).Hits() != 1 {
		t.Fatalf("hit attribution wrong: %d/%d", m.Shard(0).Hits(), m.Shard(1).Hits())
	}
	if m.Shard(0).Misses() != 0 || m.Shard(1).Misses() != 1 {
		t.Fatalf("miss attribution wrong: %d/%d", m.Shard(0).Misses(), m.Shard(1).Misses())
	}

	// Re-inserting a resident expert on the other device must not
	// replicate it.
	if _, ok := m.Insert(a, 1, Guard{}); !ok {
		t.Fatal("idempotent insert failed")
	}
	if m.Shard(1).Contains(a) {
		t.Fatal("expert replicated across shards")
	}
	if m.Devices() != 2 {
		t.Fatalf("Devices() = %d", m.Devices())
	}
}

func TestMultiWarmStripesAcrossShards(t *testing.T) {
	m := NewMulti(New(2, NewLRU()), New(2, NewLRU()))
	ids := []moe.ExpertID{
		{Layer: 0, Index: 0}, {Layer: 0, Index: 1},
		{Layer: 0, Index: 2}, {Layer: 0, Index: 3},
		{Layer: 0, Index: 4},
	}
	if got := m.Warm(ids); got != 4 {
		t.Fatalf("Warm admitted %d, want 4 (both shards full)", got)
	}
	if m.Shard(0).Len() != 2 || m.Shard(1).Len() != 2 {
		t.Fatalf("warm striping uneven: %d/%d", m.Shard(0).Len(), m.Shard(1).Len())
	}
	// The hottest (first) ids alternate devices.
	if d, _ := m.Owner(ids[0]); d != 0 {
		t.Fatalf("hottest expert on device %d, want 0", d)
	}
	if d, _ := m.Owner(ids[1]); d != 1 {
		t.Fatalf("second expert on device %d, want 1", d)
	}
}

func TestMultiPinStripes(t *testing.T) {
	m := NewMulti(New(1, NewLRU()), New(1, NewLRU()))
	a := moe.ExpertID{Layer: 0, Index: 0}
	b := moe.ExpertID{Layer: 0, Index: 1}
	c := moe.ExpertID{Layer: 0, Index: 2}
	if !m.Pin(a) || !m.Pin(b) {
		t.Fatal("pins within capacity failed")
	}
	if m.Pin(c) {
		t.Fatal("pin beyond every shard's capacity should fail")
	}
	da, _ := m.Owner(a)
	db, _ := m.Owner(b)
	if da == db {
		t.Fatalf("pins landed on one device: %d and %d", da, db)
	}
}
