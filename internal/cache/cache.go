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
	// offers holds the remembered victim of every layer that is not
	// stale and has candidates, in no order: the final Victim call of an
	// eviction picks among them. stale lists the stale layers, each
	// once, for the next eviction to rescan.
	offers []moe.ExpertID
	stale  []int
	// guarded remembers one layer's victim under a guard (see victim).
	guarded guardedVictim
	// scratch backs a layer's Victim candidates; evicted backs Insert's
	// result.
	scratch []moe.ExpertID
	evicted []moe.ExpertID

	hits   int64
	misses int64
}

// layerSet is one layer's residents by expert index, pinned experts
// first: idx[:pins] are pinned and idx[pins:] are the layer's eviction
// candidates. Unless the layer is stale, offers[offer-1] is the
// policy's Victim over its candidates (offer 0: it has none). Every
// call that can change the candidates or their order under the policy
// (place, evict, pin, touch, score observation) makes it stale.
type layerSet struct {
	idx   []int32
	pins  int
	offer int
	stale bool
}

// guardedVictim is, when ok, the policy's Victim over the candidates of
// layer that a guard did not cover. covered lists the candidates that
// guard covered, plus the experts placed in the layer since, so the
// victim stays the least of the candidates outside covered. Any other
// change to the layer forgets it.
type guardedVictim struct {
	layer   int
	victim  moe.ExpertID
	covered []int32
	ok      bool
}

// reusable reports whether v is g's victim on g.Layer: g covers every
// expert in v.covered, and not v itself. Then the candidates g leaves
// are a subset of those outside v.covered that still holds v, so v is
// their least.
func (v *guardedVictim) reusable(g Guard) bool {
	if !v.ok || v.layer != g.Layer || g.covers(v.layer, v.victim.Index) {
		return false
	}
	for _, x := range v.covered {
		if !g.covers(v.layer, int(x)) {
			return false
		}
	}
	return true
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

// changed forgets both of layer's remembered victims. A layer the cache
// has never held has none.
func (c *Cache) changed(layer int) {
	if layer >= 0 && layer < len(c.layers) {
		c.markStale(layer)
		if c.guarded.layer == layer {
			c.guarded.ok = false
		}
	}
}

// markStale forgets layer l's remembered victim over all its
// candidates, dropping it from offers, and lists the layer for a
// rescan.
func (c *Cache) markStale(l int) {
	ls := &c.layers[l]
	if ls.stale {
		return
	}
	ls.stale = true
	c.stale = append(c.stale, l)
	if ls.offer > 0 {
		i, last := ls.offer-1, c.offers[len(c.offers)-1]
		c.offers[i] = last
		c.layers[last.Layer].offer = i + 1
		c.offers = c.offers[:len(c.offers)-1]
		ls.offer = 0
	}
}

// place makes id resident (it must be absent and the cache not full) and
// tells the policy. Admit can change only id's rank, so a guarded victim
// of id's layer survives with id among the experts its reuse must
// cover.
func (c *Cache) place(id moe.ExpertID) {
	for len(c.layers) <= id.Layer {
		c.layers = append(c.layers, layerSet{})
	}
	ls := &c.layers[id.Layer]
	ls.idx = append(ls.idx, int32(id.Index))
	c.markStale(id.Layer)
	if gv := &c.guarded; gv.ok && gv.layer == id.Layer {
		gv.covered = append(gv.covered, int32(id.Index))
	}
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
	c.changed(id.Layer)
	c.slot.set(id, 0)
	c.n--
	c.policy.Forget(id)
}

// touch records an access to id in the policy.
func (c *Cache) touch(id moe.ExpertID) {
	c.changed(id.Layer)
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
// does not cover, or reports false when there are none. It rescans only
// the stale layers: each offers Victim its candidates that g does not
// cover, and the result becomes the layer's remembered victim when g
// covered none of them, or else the guarded victim. A guarded victim
// that g can reuse (see reusable) spares g's layer the rescan, and a
// remembered victim that g covers sends that layer to one. One Victim
// call over the offers, plus the guarded victim, then picks the
// eviction. That is the victim a scan of every candidate finds, because
// Victim is an argmin under a total order (see Policy): the least of a
// union is the least of its parts' leasts, and a subset that holds a
// set's least has the same least.
func (c *Cache) victim(g Guard) (moe.ExpertID, bool) {
	if g.Layer >= 0 && g.Layer < len(c.layers) {
		if ls := &c.layers[g.Layer]; ls.offer > 0 && g.covers(g.Layer, c.offers[ls.offer-1].Index) {
			c.markStale(g.Layer)
		}
	}
	guarded := false
	rest := c.stale[:0]
	for _, l := range c.stale {
		switch {
		case l == g.Layer && c.guarded.reusable(g):
			guarded = true
		case c.rescan(l, g):
			continue
		default:
			guarded = c.guarded.ok
		}
		rest = append(rest, l)
	}
	c.stale = rest
	if guarded {
		c.offers = append(c.offers, c.guarded.victim)
		v := c.policy.Victim(c.offers)
		c.offers = c.offers[:len(c.offers)-1]
		return v, true
	}
	if len(c.offers) == 0 {
		return moe.ExpertID{}, false
	}
	return c.policy.Victim(c.offers), true
}

// rescan offers Victim stale layer l's candidates that g does not cover.
// When g covers none of them, it remembers the result as the layer's
// victim, clears the layer's staleness and reports true. Otherwise the
// result is the guarded victim, and the layer stays stale.
func (c *Cache) rescan(l int, g Guard) bool {
	ls := &c.layers[l]
	offer, covered := c.scratch[:0], c.guarded.covered[:0]
	for _, x := range ls.idx[ls.pins:] {
		if g.covers(l, int(x)) {
			covered = append(covered, x)
		} else {
			offer = append(offer, expertAt(l, x))
		}
	}
	c.scratch = offer
	if len(covered) > 0 {
		c.guarded = guardedVictim{layer: l, covered: covered, ok: len(offer) > 0}
		if c.guarded.ok {
			c.guarded.victim = c.policy.Victim(offer)
		}
		return false
	}
	ls.stale = false
	if len(offer) > 0 {
		c.offers = append(c.offers, c.policy.Victim(offer))
		ls.offer = len(c.offers)
	}
	return true
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
		c.changed(id.Layer)
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
	c.changed(layer)
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
