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
	// layers holds the residents by layer; slot maps each resident to
	// its position in its layer's list plus one (0 = absent), so
	// eviction is a swap-remove within the layer. n counts them all.
	layers []layerSet
	slot   table[int32]
	n      int
	// scratch backs a layer's Victim candidates and winners the final
	// Victim call of an eviction; evicted backs Insert's result.
	scratch []moe.ExpertID
	winners []moe.ExpertID
	evicted []moe.ExpertID

	hits   int64
	misses int64
}

// layerSet is one layer's residents by expert index, pinned experts
// first: idx[:pins] are pinned and idx[pins:] are the layer's eviction
// candidates. victim remembers the policy's Victim over the candidates
// while fresh is set. Every call that can change the candidates or
// their order under the policy (place, evict, pin, touch, score
// observation) clears it.
type layerSet struct {
	idx    []int32
	pins   int
	victim moe.ExpertID
	fresh  bool
}

// expertAt names expert x of layer l.
func expertAt(l int, x int32) moe.ExpertID { return moe.ExpertID{Layer: l, Index: int(x)} }

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
func (c *Cache) Len() int { return c.n }

// Contains reports residency without touching hit/miss accounting.
func (c *Cache) Contains(id moe.ExpertID) bool { return c.slot.get(id) != 0 }

// full reports whether the cache is at capacity.
func (c *Cache) full() bool { return c.n >= c.capacity }

// stale forgets layer's remembered victim. A layer the cache has never
// held has none.
func (c *Cache) stale(layer int) {
	if layer >= 0 && layer < len(c.layers) {
		c.layers[layer].fresh = false
	}
}

// place makes id resident (it must be absent and the cache not full) and
// tells the policy.
func (c *Cache) place(id moe.ExpertID) {
	for len(c.layers) <= id.Layer {
		c.layers = append(c.layers, layerSet{})
	}
	ls := &c.layers[id.Layer]
	ls.idx = append(ls.idx, int32(id.Index))
	ls.fresh = false
	c.slot.set(id, int32(len(ls.idx)))
	c.n++
	c.policy.Admit(id)
}

// evict removes unpinned resident id by moving its layer's last
// resident into its slot, and tells the policy.
func (c *Cache) evict(id moe.ExpertID) {
	ls := &c.layers[id.Layer]
	i := c.slot.get(id) - 1
	last := ls.idx[len(ls.idx)-1]
	ls.idx[i] = last
	c.slot.set(expertAt(id.Layer, last), i+1)
	ls.idx = ls.idx[:len(ls.idx)-1]
	ls.fresh = false
	c.slot.set(id, 0)
	c.n--
	c.policy.Forget(id)
}

// touch records an access to id in the policy.
func (c *Cache) touch(id moe.ExpertID) {
	c.stale(id.Layer)
	c.policy.Touch(id)
}

// Lookup reports residency and updates hit/miss statistics and the
// policy's recency state. Use it on the serving path; use Contains for
// planning lookups that must not skew statistics.
func (c *Cache) Lookup(id moe.ExpertID) bool {
	if c.Contains(id) {
		c.hits++
		c.touch(id)
		return true
	}
	c.misses++
	return false
}

// Guard names the experts an eviction must spare: those of Layer whose
// Loads entry is positive, i.e. the experts the layer being executed
// routes tokens to. The zero Guard spares nothing.
type Guard struct {
	Layer int
	Loads []int
}

// covers reports whether g spares expert x of layer l. Every layer but
// g.Layer costs one comparison.
func (g Guard) covers(l, x int) bool {
	return l == g.Layer && x < len(g.Loads) && g.Loads[x] > 0
}

// Insert makes id resident, evicting victims as needed; g spares the
// experts it covers. It returns the evicted experts and reports whether
// the insert succeeded; inserting fails only when every resident expert
// is pinned or covered by g. The evicted slice is reused by the next
// Insert on this cache.
func (c *Cache) Insert(id moe.ExpertID, g Guard) (evicted []moe.ExpertID, ok bool) {
	if c.Contains(id) {
		return nil, true
	}
	c.evicted = c.evicted[:0]
	for c.full() {
		victim, ok := c.victim(g)
		if !ok {
			return c.evicted, false
		}
		c.evict(victim)
		c.evicted = append(c.evicted, victim)
	}
	c.place(id)
	return c.evicted, true
}

// victim picks the policy's victim among the unpinned residents that g
// does not cover, or reports false when there are none. Each layer
// offers its remembered victim when that is fresh and uncovered.
// Otherwise the layer offers Victim over its uncovered candidates,
// which becomes the remembered victim when g covered none of them. One
// Victim call over the layers' offers then picks the eviction. That is
// the victim a scan of every candidate finds, because Victim is an
// argmin under a total order (see Policy): the least of a union is the
// least of its parts' leasts, and a subset that holds a set's least has
// the same least.
func (c *Cache) victim(g Guard) (moe.ExpertID, bool) {
	c.winners = c.winners[:0]
	for l := range c.layers {
		ls := &c.layers[l]
		cands := ls.idx[ls.pins:]
		if len(cands) == 0 {
			continue
		}
		if ls.fresh && !g.covers(l, ls.victim.Index) {
			c.winners = append(c.winners, ls.victim)
			continue
		}
		offer := c.scratch[:0]
		for _, x := range cands {
			if !g.covers(l, int(x)) {
				offer = append(offer, expertAt(l, x))
			}
		}
		c.scratch = offer
		if len(offer) == 0 {
			continue
		}
		v := c.policy.Victim(offer)
		if len(offer) == len(cands) {
			ls.victim, ls.fresh = v, true
		}
		c.winners = append(c.winners, v)
	}
	if len(c.winners) == 0 {
		return moe.ExpertID{}, false
	}
	return c.policy.Victim(c.winners), true
}

// Pin marks id as permanently resident, inserting it if absent. It
// fails (returns false) when the cache is full of other pinned experts.
func (c *Cache) Pin(id moe.ExpertID) bool {
	if !c.Contains(id) {
		if _, ok := c.Insert(id, Guard{}); !ok {
			return false
		}
	}
	ls := &c.layers[id.Layer]
	if i := c.slot.get(id) - 1; int(i) >= ls.pins {
		j := int32(ls.pins)
		other := ls.idx[j]
		ls.idx[i], ls.idx[j] = other, int32(id.Index)
		c.slot.set(expertAt(id.Layer, other), i+1)
		c.slot.set(id, j+1)
		ls.pins++
		ls.fresh = false
	}
	return true
}

// Pinned reports whether id is pinned.
func (c *Cache) Pinned(id moe.ExpertID) bool {
	s := c.slot.get(id)
	return s != 0 && int(s) <= c.layers[id.Layer].pins
}

// ObserveScores forwards one iteration's routing scores for a layer to
// the policy (MRS uses them; LRU/LFU ignore them).
func (c *Cache) ObserveScores(layer int, scores []float64) {
	c.stale(layer)
	c.policy.ObserveScores(layer, scores)
}

// TouchHistorical records a historical access in the policy without
// touching residency or hit/miss statistics. Warm-up replays the
// history window through it so frequency/recency policies start with
// the state a long-running server would have, instead of treating every
// warm expert as a one-hit wonder.
func (c *Cache) TouchHistorical(id moe.ExpertID) { c.touch(id) }

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
	out := make([]moe.ExpertID, 0, c.n)
	for l, ls := range c.layers {
		for _, x := range ls.idx {
			out = append(out, expertAt(l, x))
		}
	}
	return out
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
