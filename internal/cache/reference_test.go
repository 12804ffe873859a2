package cache

import (
	"fmt"
	"sort"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

// The reference model: the map-based cache and policies the dense tables
// replaced, kept as the specification they must reproduce.

type refPolicy interface {
	touch(id moe.ExpertID)
	admit(id moe.ExpertID)
	forget(id moe.ExpertID)
	victim(candidates []moe.ExpertID) moe.ExpertID
	observe(layer int, scores []float64)
}

type refLRU struct {
	clock int64
	last  map[moe.ExpertID]int64
}

func (p *refLRU) touch(id moe.ExpertID)  { p.clock++; p.last[id] = p.clock }
func (p *refLRU) admit(id moe.ExpertID)  { p.touch(id) }
func (p *refLRU) forget(id moe.ExpertID) { delete(p.last, id) }
func (p *refLRU) observe(int, []float64) {}
func (p *refLRU) victim(cs []moe.ExpertID) moe.ExpertID {
	best := cs[0]
	for _, c := range cs[1:] {
		if p.last[c] < p.last[best] || (p.last[c] == p.last[best] && idLess(c, best)) {
			best = c
		}
	}
	return best
}

type refLFU struct {
	count, last map[moe.ExpertID]int64
	clock       int64
}

func (p *refLFU) touch(id moe.ExpertID)  { p.count[id]++; p.clock++; p.last[id] = p.clock }
func (p *refLFU) admit(id moe.ExpertID)  { p.touch(id) }
func (p *refLFU) forget(moe.ExpertID)    {}
func (p *refLFU) observe(int, []float64) {}
func (p *refLFU) victim(cs []moe.ExpertID) moe.ExpertID {
	best := cs[0]
	for _, c := range cs[1:] {
		switch {
		case p.count[c] != p.count[best]:
			if p.count[c] < p.count[best] {
				best = c
			}
		case p.last[c] != p.last[best]:
			if p.last[c] < p.last[best] {
				best = c
			}
		case idLess(c, best):
			best = c
		}
	}
	return best
}

type refMRS struct {
	alpha float64
	topP  int
	prio  map[moe.ExpertID]float64
}

func (p *refMRS) touch(moe.ExpertID)  {}
func (p *refMRS) forget(moe.ExpertID) {}
func (p *refMRS) admit(id moe.ExpertID) {
	if _, ok := p.prio[id]; !ok {
		p.prio[id] = 0
	}
}
func (p *refMRS) victim(cs []moe.ExpertID) moe.ExpertID {
	best := cs[0]
	for _, c := range cs[1:] {
		if p.prio[c] < p.prio[best] || (p.prio[c] == p.prio[best] && idLess(c, best)) {
			best = c
		}
	}
	return best
}
func (p *refMRS) observe(layer int, scores []float64) {
	if len(scores) == 0 {
		return
	}
	topP := min(p.topP, len(scores))
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	inTop := map[int]bool{}
	for _, e := range idx[:topP] {
		inTop[e] = true
	}
	for e := range scores {
		id := moe.ExpertID{Layer: layer, Index: e}
		s := 0.0
		if inTop[e] {
			s = scores[e]
		}
		p.prio[id] = p.alpha*s + (1-p.alpha)*p.prio[id]
	}
}

type refCache struct {
	capacity         int
	policy           refPolicy
	resident, pinned map[moe.ExpertID]bool
	hits, misses     int64
	victimCandidates int64
}

func newRefCache(capacity int, p refPolicy) *refCache {
	return &refCache{capacity: capacity, policy: p,
		resident: map[moe.ExpertID]bool{}, pinned: map[moe.ExpertID]bool{}}
}

func (c *refCache) insert(id moe.ExpertID, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool) {
	if c.resident[id] {
		return nil, true
	}
	var evicted []moe.ExpertID
	for len(c.resident) >= c.capacity {
		var cands []moe.ExpertID
		for r := range c.resident {
			if !c.pinned[r] && (protected == nil || !protected(r)) {
				cands = append(cands, r)
			}
		}
		if len(cands) == 0 {
			return evicted, false
		}
		c.victimCandidates += int64(len(cands))
		v := c.policy.victim(cands)
		delete(c.resident, v)
		c.policy.forget(v)
		evicted = append(evicted, v)
	}
	c.resident[id] = true
	c.policy.admit(id)
	return evicted, true
}

func (c *refCache) pin(id moe.ExpertID) bool {
	if !c.resident[id] {
		if _, ok := c.insert(id, nil); !ok {
			return false
		}
	}
	c.pinned[id] = true
	return true
}

// refMulti is the reference per-device cache.
type refMulti struct {
	shards []*refCache
	cursor int
}

func (m *refMulti) owner(id moe.ExpertID) (int, bool) {
	for d, s := range m.shards {
		if s.resident[id] {
			return d, true
		}
	}
	return 0, false
}

func (m *refMulti) lookup(id moe.ExpertID, home int) bool {
	for _, s := range m.shards {
		if s.resident[id] {
			s.hits++
			s.policy.touch(id)
			return true
		}
	}
	m.shards[home].misses++
	return false
}

func (m *refMulti) insert(id moe.ExpertID, d int, protected func(moe.ExpertID) bool) ([]moe.ExpertID, bool) {
	if _, ok := m.owner(id); ok {
		return nil, true
	}
	return m.shards[d].insert(id, protected)
}

func (m *refMulti) pin(id moe.ExpertID) bool {
	if d, ok := m.owner(id); ok {
		return m.shards[d].pin(id)
	}
	for i := range m.shards {
		d := (m.cursor + i) % len(m.shards)
		if m.shards[d].pin(id) {
			m.cursor = (d + 1) % len(m.shards)
			return true
		}
	}
	return false
}

func (m *refMulti) warm(ids []moe.ExpertID) int {
	n := 0
	for _, id := range ids {
		if _, ok := m.owner(id); ok {
			continue
		}
		admitted := false
		for i := range m.shards {
			d := (m.cursor + i) % len(m.shards)
			s := m.shards[d]
			if len(s.resident) >= s.capacity {
				continue
			}
			s.resident[id] = true
			s.policy.admit(id)
			m.cursor = (d + 1) % len(m.shards)
			admitted = true
			n++
			break
		}
		if !admitted {
			break
		}
	}
	return n
}

func (m *refMulti) observe(layer int, scores []float64) {
	for _, s := range m.shards {
		s.policy.observe(layer, scores)
	}
}

func (m *refMulti) touchHistorical(id moe.ExpertID) {
	d, _ := m.owner(id)
	m.shards[d].policy.touch(id)
}

// countingPolicy counts the candidates Victim is offered, the figure a
// traced run reports as cache.victim_candidates.
type countingPolicy struct {
	Policy
	candidates int64
}

func (p *countingPolicy) Victim(cs []moe.ExpertID) moe.ExpertID {
	p.candidates += int64(len(cs))
	return p.Policy.Victim(cs)
}

func newPolicyPair(name string, topP int) (Policy, refPolicy) {
	switch name {
	case "LRU":
		return NewLRU(), &refLRU{last: map[moe.ExpertID]int64{}}
	case "LFU":
		return NewLFU(), &refLFU{count: map[moe.ExpertID]int64{}, last: map[moe.ExpertID]int64{}}
	default:
		return NewMRS(DefaultAlpha, topP), &refMRS{alpha: DefaultAlpha, topP: topP, prio: map[moe.ExpertID]float64{}}
	}
}

// TestCacheMatchesReference drives the dense cache and the map-based
// reference through identical seeded random sequences of every
// operation the engine issues — lookups, inserts under random
// protection sets, pins, warm fills, score observations with frequent
// ties and historical touches — on one and two shards, under all three
// policies, and requires identical evictions, residency, statistics,
// victim-candidate counts and MRS priorities after every operation.
func TestCacheMatchesReference(t *testing.T) {
	const layers, experts, topP = 4, 8, 3
	all := make([]moe.ExpertID, 0, layers*experts)
	for l := 0; l < layers; l++ {
		for e := 0; e < experts; e++ {
			all = append(all, id(l, e))
		}
	}
	for _, name := range []string{"LRU", "LFU", "MRS"} {
		for _, shards := range []int{1, 2} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%dshard/seed%d", name, shards, seed), func(t *testing.T) {
					rng := stats.NewRNG(seed)
					capacity := 2 + rng.Intn(6)
					var cs []*Cache
					var counters []*countingPolicy
					ref := &refMulti{}
					for d := 0; d < shards; d++ {
						p, rp := newPolicyPair(name, topP)
						cp := &countingPolicy{Policy: p}
						counters = append(counters, cp)
						cs = append(cs, New(capacity, cp))
						ref.shards = append(ref.shards, newRefCache(capacity, rp))
					}
					m := NewMulti(cs...)
					pick := func() moe.ExpertID { return all[rng.Intn(len(all))] }
					for op := 0; op < 1500; op++ {
						var what string
						switch k := rng.Intn(20); {
						case k < 6:
							x, home := pick(), rng.Intn(shards)
							what = fmt.Sprintf("Lookup(%v,%d)", x, home)
							if got, want := m.Lookup(x, home), ref.lookup(x, home); got != want {
								t.Fatalf("op %d %s = %v, reference %v", op, what, got, want)
							}
						case k < 12:
							x, d := pick(), rng.Intn(shards)
							prot := map[moe.ExpertID]bool{}
							for n := rng.Intn(4); n > 0; n-- {
								prot[pick()] = true
							}
							guard := func(y moe.ExpertID) bool { return prot[y] }
							what = fmt.Sprintf("Insert(%v,%d,protect %d)", x, d, len(prot))
							gotEv, gotOK := m.Insert(x, d, guard)
							gotEv = append([]moe.ExpertID(nil), gotEv...)
							wantEv, wantOK := ref.insert(x, d, guard)
							if gotOK != wantOK || fmt.Sprint(gotEv) != fmt.Sprint(wantEv) {
								t.Fatalf("op %d %s = %v,%v, reference %v,%v", op, what, gotEv, gotOK, wantEv, wantOK)
							}
						case k == 12:
							x := pick()
							what = fmt.Sprintf("Pin(%v)", x)
							if got, want := m.Pin(x), ref.pin(x); got != want {
								t.Fatalf("op %d %s = %v, reference %v", op, what, got, want)
							}
						case k == 13:
							ids := make([]moe.ExpertID, rng.Intn(6))
							for i := range ids {
								ids[i] = pick()
							}
							what = fmt.Sprintf("Warm(%v)", ids)
							if got, want := m.Warm(ids), ref.warm(ids); got != want {
								t.Fatalf("op %d %s = %d, reference %d", op, what, got, want)
							}
						case k < 18:
							layer := rng.Intn(layers)
							scores := make([]float64, experts)
							for i := range scores {
								// Coarse levels force ties at the top-p
								// boundary.
								scores[i] = float64(rng.Intn(4)) / 8
							}
							what = fmt.Sprintf("ObserveScores(%d,%v)", layer, scores)
							m.ObserveScores(layer, scores)
							ref.observe(layer, scores)
						default:
							x := pick()
							what = fmt.Sprintf("TouchHistorical(%v)", x)
							m.TouchHistorical(x)
							ref.touchHistorical(x)
						}
						for d := 0; d < shards; d++ {
							s, r := m.Shard(d), ref.shards[d]
							if s.Hits() != r.hits || s.Misses() != r.misses || s.Len() != len(r.resident) {
								t.Fatalf("op %d %s: shard %d hits/misses/len %d/%d/%d, reference %d/%d/%d",
									op, what, d, s.Hits(), s.Misses(), s.Len(), r.hits, r.misses, len(r.resident))
							}
							if counters[d].candidates != r.victimCandidates {
								t.Fatalf("op %d %s: shard %d offered %d victim candidates, reference %d",
									op, what, d, counters[d].candidates, r.victimCandidates)
							}
						}
						for _, x := range all {
							gd, gok := m.Owner(x)
							wd, wok := ref.owner(x)
							if gd != wd || gok != wok {
								t.Fatalf("op %d %s: Owner(%v) = %d,%v, reference %d,%v", op, what, x, gd, gok, wd, wok)
							}
							if gp, wp := m.Shard(gd).Pinned(x), ref.shards[wd].pinned[x]; gp != wp {
								t.Fatalf("op %d %s: Pinned(%v) = %v, reference %v", op, what, x, gp, wp)
							}
							for d := 0; d < shards; d++ {
								mrs, ok := counters[d].Policy.(*MRS)
								if !ok {
									continue
								}
								if got, want := mrs.Priority(x), ref.shards[d].policy.(*refMRS).prio[x]; got != want {
									t.Fatalf("op %d %s: shard %d Priority(%v) = %v, reference %v", op, what, d, x, got, want)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestMRSTopPTieAtBoundary pins the tie rule where it decides
// membership: with p = 2 and three experts tied for second place, only
// the lowest-indexed of them accumulates (the stable descending sort's
// prefix), and the reference agrees.
func TestMRSTopPTieAtBoundary(t *testing.T) {
	scores := []float64{0.1, 0.25, 0.3, 0.25, 0.25}
	p := NewMRS(0.5, 2)
	ref := &refMRS{alpha: 0.5, topP: 2, prio: map[moe.ExpertID]float64{}}
	p.ObserveScores(0, scores)
	ref.observe(0, scores)
	want := []float64{0, 0.125, 0.15, 0, 0}
	for e, w := range want {
		if got := p.Priority(id(0, e)); got != w || got != ref.prio[id(0, e)] {
			t.Fatalf("Priority(0.%d) = %v, want %v (reference %v)", e, got, w, ref.prio[id(0, e)])
		}
	}
}

// TestHotPathsDoNotAllocate pins the steady-state allocation contract:
// once the tables and scratch have grown, score observation, victim
// choice under every policy, and an evicting insert allocate nothing.
func TestHotPathsDoNotAllocate(t *testing.T) {
	scores := []float64{0.05, 0.3, 0.1, 0.2, 0.15, 0.2}
	mrs := NewMRS(DefaultAlpha, 4)
	mrs.ObserveScores(3, scores)
	if a := testing.AllocsPerRun(100, func() { mrs.ObserveScores(3, scores) }); a != 0 {
		t.Errorf("MRS.ObserveScores allocated %.1f times per call", a)
	}
	cands := []moe.ExpertID{id(3, 0), id(3, 1), id(3, 2), id(3, 3), id(3, 4), id(3, 5)}
	for _, name := range []string{"LRU", "LFU", "MRS"} {
		p, _ := newPolicyPair(name, 4)
		for _, c := range cands {
			p.Admit(c)
		}
		p.ObserveScores(3, scores)
		if a := testing.AllocsPerRun(100, func() { p.Victim(cands) }); a != 0 {
			t.Errorf("%s.Victim allocated %.1f times per call", name, a)
		}
	}
	c := New(4, NewMRS(DefaultAlpha, 4))
	c.ObserveScores(3, scores)
	for e := 0; e < 6; e++ {
		c.Insert(id(3, e), nil)
	}
	e := 0
	if a := testing.AllocsPerRun(100, func() {
		c.Insert(id(3, e%6), nil)
		e++
	}); a != 0 {
		t.Errorf("evicting Cache.Insert allocated %.1f times per call", a)
	}
}
