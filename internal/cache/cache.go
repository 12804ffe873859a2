package cache

import (
	"fmt"

	"hybrimoe/internal/moe"
)

// Cache is the GPU-resident expert set with a capacity measured in
// experts (the paper's "GPU expert cache ratio" × total routed experts).
// It tracks hits and misses and delegates replacement to a Policy.
//
// Pinned experts (kTransformers-style static placement) count against
// capacity but are never evicted.
type Cache struct {
	capacity int
	policy   Policy
	// resident lists the resident experts; slot maps each one to its
	// position plus one (0 = absent), so eviction is a swap-remove.
	// pins counts the pinned experts, so the partition can skip the
	// pinned table when there are none.
	resident []moe.ExpertID
	slot     table[int32]
	pinned   table[bool]
	pins     int
	// split partitions resident for the insert call in progress: once
	// an eviction has needed it, resident[:split] are the pinned and
	// protected experts and resident[split:] the victim candidates. -1
	// until then; every call starts without it, since its guard may
	// differ from the last call's.
	split int
	// evicted backs Insert's result.
	evicted []moe.ExpertID

	hits   int64
	misses int64
}

// New returns an empty cache. Capacity 0 is a valid degenerate cache
// (every lookup misses, every insert fails) — the zero-cache baseline.
// Panics on negative capacity or nil policy.
func New(capacity int, policy Policy) *Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: capacity %d must be non-negative", capacity))
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	return &Cache{capacity: capacity, policy: policy}
}

// Capacity reports the maximum resident expert count.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the current resident expert count (including pinned).
func (c *Cache) Len() int { return len(c.resident) }

// Contains reports residency without touching hit/miss accounting.
func (c *Cache) Contains(id moe.ExpertID) bool { return c.slot.get(id) != 0 }

// full reports whether the cache is at capacity.
func (c *Cache) full() bool { return len(c.resident) >= c.capacity }

// place makes id resident (it must be absent and the cache not full) and
// tells the policy.
func (c *Cache) place(id moe.ExpertID) {
	c.resident = append(c.resident, id)
	c.slot.set(id, int32(len(c.resident)))
	c.policy.Admit(id)
}

// evict removes resident id by moving the last resident into its slot,
// and tells the policy.
func (c *Cache) evict(id moe.ExpertID) {
	i := c.slot.get(id) - 1
	last := c.resident[len(c.resident)-1]
	c.resident[i] = last
	c.slot.set(last, i+1)
	c.resident = c.resident[:len(c.resident)-1]
	c.slot.set(id, 0)
	c.policy.Forget(id)
}

// Lookup reports residency and updates hit/miss statistics and the
// policy's recency state. Use it on the serving path; use Contains for
// planning lookups that must not skew statistics.
func (c *Cache) Lookup(id moe.ExpertID) bool {
	if c.Contains(id) {
		c.hits++
		c.policy.Touch(id)
		return true
	}
	c.misses++
	return false
}

// Insert makes id resident, evicting victims as needed. protected, when
// non-nil, marks experts that must not be evicted right now (e.g. the
// current layer's activated experts). It returns the evicted experts
// and reports whether the insert succeeded; inserting fails only when
// every resident expert is pinned or protected. The evicted slice is
// reused by the next Insert on this cache.
func (c *Cache) Insert(id moe.ExpertID, protected func(moe.ExpertID) bool) (evicted []moe.ExpertID, ok bool) {
	c.split = -1
	return c.insert(id, protected)
}

// insert is Insert inside a call that may insert several ids under one
// guard, reusing the call's partition. The partition stays exact for
// the whole call: the guard and the pins do not change, a victim
// leaves the candidate suffix through a swap-remove that moves another
// candidate into its slot, and a placed expert joins the candidates
// unless the guard protects it. So every Victim call is offered the
// set a fresh scan would build, in a different order, which Victim
// ignores.
func (c *Cache) insert(id moe.ExpertID, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool) {
	if c.Contains(id) {
		return nil, true
	}
	c.evicted = c.evicted[:0]
	for c.full() {
		if c.split < 0 {
			c.partition(protected)
		}
		candidates := c.resident[c.split:]
		if len(candidates) == 0 {
			return c.evicted, false
		}
		victim := c.policy.Victim(candidates)
		c.evict(victim)
		c.evicted = append(c.evicted, victim)
	}
	c.place(id)
	if c.split >= 0 && protected != nil && protected(id) {
		c.swap(len(c.resident)-1, c.split)
		c.split++
	}
	return c.evicted, true
}

// partition moves the pinned and protected residents to the front of
// the resident list and sets split past them.
func (c *Cache) partition(protected func(moe.ExpertID) bool) {
	k := 0
	for i, id := range c.resident {
		if (c.pins > 0 && c.pinned.get(id)) || (protected != nil && protected(id)) {
			c.swap(i, k)
			k++
		}
	}
	c.split = k
}

// swap exchanges two positions of the resident list.
func (c *Cache) swap(i, j int) {
	if i == j {
		return
	}
	a, b := c.resident[i], c.resident[j]
	c.resident[i], c.resident[j] = b, a
	c.slot.set(b, int32(i+1))
	c.slot.set(a, int32(j+1))
}

// Pin marks id as permanently resident, inserting it if absent. It
// fails (returns false) when the cache is full of other pinned experts.
func (c *Cache) Pin(id moe.ExpertID) bool {
	if !c.Contains(id) {
		if _, ok := c.Insert(id, nil); !ok {
			return false
		}
	}
	if !c.pinned.get(id) {
		c.pinned.set(id, true)
		c.pins++
	}
	return true
}

// Pinned reports whether id is pinned.
func (c *Cache) Pinned(id moe.ExpertID) bool { return c.pinned.get(id) }

// ObserveScores forwards one iteration's routing scores for a layer to
// the policy (MRS uses them; LRU/LFU ignore them).
func (c *Cache) ObserveScores(layer int, scores []float64) {
	c.policy.ObserveScores(layer, scores)
}

// TouchHistorical records a historical access in the policy without
// touching residency or hit/miss statistics. Warm-up replays the
// history window through it so frequency/recency policies start with
// the state a long-running server would have, instead of treating every
// warm expert as a one-hit wonder.
func (c *Cache) TouchHistorical(id moe.ExpertID) { c.policy.Touch(id) }

// Hits reports the lookup hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses reports the lookup miss count.
func (c *Cache) Misses() int64 { return c.misses }

// HitRate reports hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats clears hit/miss counters without touching residency, so
// experiments can exclude warm-up from measurements.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Resident returns a copy of the resident expert set (order
// unspecified).
func (c *Cache) Resident() []moe.ExpertID {
	return append([]moe.ExpertID(nil), c.resident...)
}

// Warm fills the cache with ids (stopping at capacity) without counting
// statistics, for experiment warm starts. It reports how many were
// admitted.
func (c *Cache) Warm(ids []moe.ExpertID) int {
	n := 0
	for _, id := range ids {
		if c.full() {
			break
		}
		if c.Contains(id) {
			continue
		}
		c.place(id)
		n++
	}
	return n
}
