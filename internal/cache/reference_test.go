package cache

import (
	"fmt"
	"slices"
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
	victimCalls      int64
	victimCandidates int64
}

func newRefCache(capacity int, p refPolicy) *refCache {
	return &refCache{capacity: capacity, policy: p,
		resident: map[moe.ExpertID]bool{}, pinned: map[moe.ExpertID]bool{}}
}

// spares is the reference reading of a guard: it covers id when id is
// on the guard's layer and has a positive load there.
func spares(g Guard, id moe.ExpertID) bool {
	return id.Layer == g.Layer && id.Index < len(g.Loads) && g.Loads[id.Index] > 0
}

func (c *refCache) insert(id moe.ExpertID, g Guard) ([]moe.ExpertID, bool) {
	if c.resident[id] {
		return nil, true
	}
	var evicted []moe.ExpertID
	for len(c.resident) >= c.capacity {
		var cands []moe.ExpertID
		for r := range c.resident {
			if !c.pinned[r] && !spares(g, r) {
				cands = append(cands, r)
			}
		}
		if len(cands) == 0 {
			return evicted, false
		}
		c.victimCalls++
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
		if _, ok := c.insert(id, Guard{}); !ok {
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

func (m *refMulti) insert(id moe.ExpertID, d int, g Guard) ([]moe.ExpertID, bool) {
	if _, ok := m.owner(id); ok {
		return nil, true
	}
	return m.shards[d].insert(id, g)
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

// countingPolicy counts the Victim calls. Bound to a shard, it also
// checks every call's offer: each candidate resident on the shard,
// unpinned, not spared by guard (the guard of the insert in progress)
// and listed once. err keeps the first violation.
type countingPolicy struct {
	Policy
	calls int64
	shard *Cache
	guard Guard
	err   error
}

func (p *countingPolicy) Victim(cs []moe.ExpertID) moe.ExpertID {
	p.calls++
	if p.shard != nil && p.err == nil {
		p.err = p.checkOffer(cs)
	}
	return p.Policy.Victim(cs)
}

// checkOffer reports the first candidate of cs that Victim must not be
// offered.
func (p *countingPolicy) checkOffer(cs []moe.ExpertID) error {
	for i, x := range cs {
		var why string
		switch {
		case !p.shard.Contains(x):
			why = "is not resident"
		case p.shard.Pinned(x):
			why = "is pinned"
		case spares(p.guard, x):
			why = "is guarded"
		case slices.Contains(cs[:i], x):
			why = "is listed twice"
		default:
			continue
		}
		return fmt.Errorf("candidate %v of Victim(%v) %s", x, cs, why)
	}
	return nil
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

// matchReference drives a Multi of shards caches of the given capacity
// under the named policy, and the map-based reference, through
// identical operations, and returns the first divergence. intn draws
// every choice in [0, n); more reports whether to run operation op.
// The mix is every operation the engine issues: lookups, inserts under
// random guards, pins, warm fills, score observations with frequent
// ties, historical touches, and batches of inserts under one guard.
// After each operation the driver requires identical evictions,
// residency, statistics and MRS priorities, and it requires every
// Victim call to have been offered only evictable residents, each once.
func matchReference(name string, shards, capacity int, intn func(n int) int, more func(op int) bool) error {
	const layers, experts, topP = 4, 8, 3
	all := make([]moe.ExpertID, 0, layers*experts)
	for l := 0; l < layers; l++ {
		for e := 0; e < experts; e++ {
			all = append(all, id(l, e))
		}
	}
	var cs []*Cache
	var counters []*countingPolicy
	ref := &refMulti{}
	for d := 0; d < shards; d++ {
		p, rp := newPolicyPair(name, topP)
		cp := &countingPolicy{Policy: p}
		cs = append(cs, New(capacity, cp))
		cp.shard = cs[d]
		counters = append(counters, cp)
		ref.shards = append(ref.shards, newRefCache(capacity, rp))
	}
	m := NewMulti(cs...)
	pick := func() moe.ExpertID { return all[intn(len(all))] }
	// Every guard's loads are rewritten into one slice, as the engine
	// rewrites its routing buffers, so a cache that keys a remembered
	// victim on the slice rather than on its contents diverges.
	loads := make([]int, 0, experts)
	reuse := func(g Guard) Guard {
		if g.Loads != nil {
			g.Loads = append(loads[:0], g.Loads...)
		}
		return g
	}
	// insert runs one Insert on both sides under g, which the counters
	// check Victim's offers against.
	insert := func(x moe.ExpertID, d int, g Guard) error {
		for _, cp := range counters {
			cp.guard = g
		}
		gotEv, gotOK := m.Insert(x, d, g)
		gotEv = append([]moe.ExpertID(nil), gotEv...)
		for _, cp := range counters {
			cp.guard = Guard{}
		}
		wantEv, wantOK := ref.insert(x, d, g)
		if gotOK != wantOK || fmt.Sprint(gotEv) != fmt.Sprint(wantEv) {
			return fmt.Errorf("inserting %v on shard %d evicted %v (ok %v), reference %v (ok %v)", x, d, gotEv, gotOK, wantEv, wantOK)
		}
		return nil
	}
	for op := 0; more(op); op++ {
		var what string
		var err error
		switch k := intn(23); {
		case k < 6:
			x, home := pick(), intn(shards)
			what = fmt.Sprintf("Lookup(%v,%d)", x, home)
			if got, want := m.Lookup(x, home), ref.lookup(x, home); got != want {
				err = fmt.Errorf("= %v, reference %v", got, want)
			}
		case k < 12:
			x, d := pick(), intn(shards)
			g := reuse(drawGuard(intn, layers, experts))
			what = fmt.Sprintf("Insert(%v,%d,%v)", x, d, g)
			err = insert(x, d, g)
		case k == 12:
			x := pick()
			what = fmt.Sprintf("Pin(%v)", x)
			if got, want := m.Pin(x), ref.pin(x); got != want {
				err = fmt.Errorf("= %v, reference %v", got, want)
			}
		case k == 13:
			ids := make([]moe.ExpertID, intn(6))
			for i := range ids {
				ids[i] = pick()
			}
			what = fmt.Sprintf("Warm(%v)", ids)
			if got, want := m.Warm(ids), ref.warm(ids); got != want {
				err = fmt.Errorf("= %d, reference %d", got, want)
			}
		case k < 18:
			layer := intn(layers)
			scores := make([]float64, experts)
			for i := range scores {
				// Coarse levels force ties at the top-p boundary.
				scores[i] = float64(intn(4)) / 8
			}
			what = fmt.Sprintf("ObserveScores(%d,%v)", layer, scores)
			m.ObserveScores(layer, scores)
			ref.observe(layer, scores)
		case k < 20:
			x := pick()
			what = fmt.Sprintf("TouchHistorical(%v)", x)
			m.TouchHistorical(x)
			ref.touchHistorical(x)
		default:
			ids, dests, g := insertBatch(intn, m, pick, layers, experts)
			g = reuse(g)
			what = fmt.Sprintf("batch(%v,dest %v,%v)", ids, dests, g)
			for _, x := range ids {
				if err = insert(x, dests[x], g); err != nil {
					break
				}
			}
		}
		if err != nil {
			return fmt.Errorf("op %d %s: %v", op, what, err)
		}
		for d := 0; d < shards; d++ {
			s, r := m.Shard(d), ref.shards[d]
			if s.Hits() != r.hits || s.Misses() != r.misses || s.Len() != len(r.resident) {
				return fmt.Errorf("op %d %s: shard %d hits/misses/len %d/%d/%d, reference %d/%d/%d",
					op, what, d, s.Hits(), s.Misses(), s.Len(), r.hits, r.misses, len(r.resident))
			}
			if err := counters[d].err; err != nil {
				return fmt.Errorf("op %d %s: shard %d: %v", op, what, d, err)
			}
		}
		for _, x := range all {
			gd, gok := m.Owner(x)
			wd, wok := ref.owner(x)
			if gd != wd || gok != wok {
				return fmt.Errorf("op %d %s: Owner(%v) = %d,%v, reference %d,%v", op, what, x, gd, gok, wd, wok)
			}
			if gp, wp := m.Shard(gd).Pinned(x), ref.shards[wd].pinned[x]; gp != wp {
				return fmt.Errorf("op %d %s: Pinned(%v) = %v, reference %v", op, what, x, gp, wp)
			}
			for d := 0; d < shards; d++ {
				mrs, ok := counters[d].Policy.(*MRS)
				if !ok {
					continue
				}
				if got, want := mrs.Priority(x), ref.shards[d].policy.(*refMRS).prio[x]; got != want {
					return fmt.Errorf("op %d %s: shard %d Priority(%v) = %v, reference %v", op, what, d, x, got, want)
				}
			}
		}
	}
	return nil
}

// TestCacheMatchesReference runs matchReference on seeded random
// sequences of 1500 operations, on one and two shards under all three
// policies. The reference rebuilds its candidates for every eviction.
func TestCacheMatchesReference(t *testing.T) {
	for _, name := range []string{"LRU", "LFU", "MRS"} {
		for _, shards := range []int{1, 2} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%dshard/seed%d", name, shards, seed), func(t *testing.T) {
					rng := stats.NewRNG(seed)
					capacity := 2 + rng.Intn(6)
					if err := matchReference(name, shards, capacity, rng.Intn, func(op int) bool { return op < 1500 }); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// FuzzCacheMatchesReference runs matchReference on operations decoded
// from the input: the first three bytes pick the policy, one or two
// shards and a capacity of 1–8, and each later byte makes one choice of
// the operation mix, until the input runs out.
func FuzzCacheMatchesReference(f *testing.F) {
	// Each of the first five seeds fails a cache that keeps a layer's
	// remembered victim across one of the calls that change the layer:
	//   - a hit's Touch, under LRU;
	//   - a hit's Touch, under LFU;
	//   - ObserveScores, under MRS;
	//   - a Pin, under LRU;
	//   - an eviction.
	// The next two fail a cache that remembers a victim it picked while
	// the guard hid some of the layer's candidates, and one that offers
	// a remembered victim the guard covers. The last three fail a cache
	// that reuses a guarded victim while the guard's Loads slice is the
	// same, although its contents changed; one that reuses it under a
	// guard that no longer covers a candidate the victim's guard
	// covered; and one that keeps it across a placement in its layer
	// without requiring the guard to cover the placed expert.
	for _, seed := range []string{
		"00m[s00005=0qk0u:0000sU0bj000000009c00;;00000y0000000000000k0YP00:0000wx0>",
		"10c000000:sBP0m00J00Ry0oX0000jE02y0000000000090000Y0",
		"20zPy00n0900Y0S00c<004Q0I00000000Vk0S000000000b00[0lPC00D0",
		"00G000RYm0g0`;F7500[000_0nF0000000000000000000M400lK00000000QGn0Pe",
		"00lRRDA0n0F00t0Yq00Q0000W\\0c",
		"00ZL]00L00q0z00000PW00dN08:ge0000t0U0000000000m07",
		"00SB0003000000000000ReW0000X0Pc0q0z00000f;00000r0",
		"00C78000007000000000000A0000$2917201772B1000010011027000007",
		"01C$X0*71BY00200002102700001002(028100010110Y0000000079111Y0020000071111",
		"20$78010200000%0000000007A00%1000000007900BX01002701102102000000000000112002",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		name := []string{"LRU", "LFU", "MRS"}[intn(3)]
		shards, capacity := 1+intn(2), 1+intn(8)
		if err := matchReference(name, shards, capacity, intn, func(int) bool { return len(data) > 0 }); err != nil {
			t.Fatalf("%s, %d shards, capacity %d: %v", name, shards, capacity, err)
		}
	})
}

// drawGuard draws an insert's guard: the zero guard one time in three,
// otherwise a random one of layers with 0 to experts loads, each -1, 0
// or 1, so a guard may cover none of its layer or stop short of it.
func drawGuard(intn func(int) int, layers, experts int) Guard {
	if intn(3) == 0 {
		return Guard{}
	}
	g := Guard{Layer: intn(layers), Loads: make([]int, intn(experts+1))}
	for i := range g.Loads {
		g.Loads[i] = intn(3) - 1
	}
	return g
}

// insertBatch draws a batch for the reference test: 0–8 ids mixing
// fresh picks, repeats within the batch and residents, each with a
// random destination shard, and one guard for the whole batch. Batch
// ids the guard does not cover are evictable once placed. One batch in
// four guards every expert of its layer, so a full shard holding only
// that layer's residents has nothing to evict and every insert into it
// fails.
func insertBatch(intn func(int) int, m *Multi, pick func() moe.ExpertID, layers, experts int) ([]moe.ExpertID, map[moe.ExpertID]int, Guard) {
	ids := make([]moe.ExpertID, intn(9))
	for i := range ids {
		s := m.Shard(intn(m.Devices()))
		switch r := intn(4); {
		case r == 0 && i > 0:
			ids[i] = ids[intn(i)]
		case r == 1 && s.Len() > 0:
			ids[i] = s.Resident()[intn(s.Len())]
		default:
			ids[i] = pick()
		}
	}
	dests := map[moe.ExpertID]int{}
	for _, x := range ids {
		if _, ok := dests[x]; !ok {
			dests[x] = intn(m.Devices())
		}
	}
	if intn(4) == 0 {
		return ids, dests, Guard{Layer: intn(layers), Loads: slices.Repeat([]int{1}, experts)}
	}
	return ids, dests, drawGuard(intn, layers, experts)
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
// choice under every policy, an evicting insert and an evicting batch
// on one or two shards allocate nothing.
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
		c.Insert(id(3, e), Guard{})
	}
	e := 0
	if a := testing.AllocsPerRun(100, func() {
		c.Insert(id(3, e%6), Guard{})
		e++
	}); a != 0 {
		t.Errorf("evicting Cache.Insert allocated %.1f times per call", a)
	}
	pool := make([]moe.ExpertID, 12)
	for i := range pool {
		pool[i] = id(3, i)
	}
	for _, shards := range []int{1, 2} {
		var cs []*Cache
		var counters []*countingPolicy
		for d := 0; d < shards; d++ {
			cp := &countingPolicy{Policy: NewMRS(DefaultAlpha, 4)}
			counters = append(counters, cp)
			cs = append(cs, New(4, cp))
		}
		m := NewMulti(cs...)
		m.ObserveScores(3, scores)
		m.Warm(pool)
		batch := make([]moe.ExpertID, 3)
		// The guard covers the batch's first expert.
		guard := Guard{Layer: 3, Loads: make([]int, len(pool))}
		e := 0
		// AllocsPerRun's own warm-up call is the one the batch needs.
		if a := testing.AllocsPerRun(100, func() {
			for i := range batch {
				batch[i] = pool[(5*e+i)%len(pool)]
			}
			e++
			clear(guard.Loads)
			guard.Loads[batch[0].Index] = 1
			for _, x := range batch {
				m.Insert(x, x.Index%shards, guard)
			}
		}); a != 0 {
			t.Errorf("evicting batch of Multi.Insert on %d shards allocated %.1f times per call", shards, a)
		}
		for d, cp := range counters {
			if cp.calls == 0 {
				t.Errorf("batch of Multi.Insert on %d shards never evicted from shard %d", shards, d)
			}
		}
	}
}
