// Package cache implements the GPU expert cache: a capacity-bounded set
// of routed experts resident in GPU memory, with pluggable replacement
// policies. Alongside the classic LRU and LFU baselines it provides the
// paper's contribution, Minus-Recent-Score (MRS) score-aware caching
// (§IV-D): expert priority is an exponential moving average of recent
// routing scores, accumulated only for the top-p scores per iteration
// (p = 2K by default), and the lowest-priority expert is evicted.
package cache

import (
	"fmt"
	"sort"

	"hybrimoe/internal/moe"
)

// Policy decides which resident expert to evict. Implementations keep
// their own bookkeeping, driven by the cache's callbacks.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Touch records a cache hit on id.
	Touch(id moe.ExpertID)
	// Admit records id becoming resident.
	Admit(id moe.ExpertID)
	// Forget records id leaving the cache.
	Forget(id moe.ExpertID)
	// Victim picks the eviction victim among candidates (never empty).
	// The slice is the cache's scratch: read it, do not retain it.
	Victim(candidates []moe.ExpertID) moe.ExpertID
	// ObserveScores feeds one iteration's routing scores for a layer.
	// Score-agnostic policies ignore it. The engine reuses the slice for
	// the next iteration, so a policy copies what it keeps.
	ObserveScores(layer int, scores []float64)
}

// LRU evicts the least-recently-used expert.
type LRU struct {
	clock int64
	last  table[int64]
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// Touch implements Policy.
func (p *LRU) Touch(id moe.ExpertID) {
	p.clock++
	p.last.set(id, p.clock)
}

// Admit implements Policy.
func (p *LRU) Admit(id moe.ExpertID) { p.Touch(id) }

// Forget implements Policy.
func (p *LRU) Forget(id moe.ExpertID) { p.last.set(id, 0) }

// Victim implements Policy: least recently used, ties broken by expert
// ID so victim choice is independent of candidate order.
func (p *LRU) Victim(candidates []moe.ExpertID) moe.ExpertID {
	if len(candidates) == 0 {
		panic("cache: Victim with no candidates")
	}
	best, bestLast := candidates[0], p.last.get(candidates[0])
	for _, c := range candidates[1:] {
		if last := p.last.get(c); last < bestLast || (last == bestLast && idLess(c, best)) {
			best, bestLast = c, last
		}
	}
	return best
}

// idLess is the deterministic tie-break order on expert IDs.
func idLess(a, b moe.ExpertID) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	return a.Index < b.Index
}

// ObserveScores implements Policy (no-op).
func (p *LRU) ObserveScores(int, []float64) {}

// LFU evicts the least-frequently-used expert (total hit count).
type LFU struct {
	count table[int64]
	// tie-breaking by recency avoids pathological churn
	clock int64
	last  table[int64]
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{} }

// Name implements Policy.
func (p *LFU) Name() string { return "LFU" }

// Touch implements Policy.
func (p *LFU) Touch(id moe.ExpertID) {
	p.count.set(id, p.count.get(id)+1)
	p.clock++
	p.last.set(id, p.clock)
}

// Admit implements Policy.
func (p *LFU) Admit(id moe.ExpertID) { p.Touch(id) }

// Forget implements Policy. Frequency history persists across
// residency, the usual LFU-with-history variant frameworks use.
func (p *LFU) Forget(id moe.ExpertID) {}

// Victim implements Policy.
func (p *LFU) Victim(candidates []moe.ExpertID) moe.ExpertID {
	if len(candidates) == 0 {
		panic("cache: Victim with no candidates")
	}
	best := candidates[0]
	bestCount, bestLast := p.count.get(best), p.last.get(best)
	for _, c := range candidates[1:] {
		count, last := p.count.get(c), p.last.get(c)
		if count < bestCount || (count == bestCount &&
			(last < bestLast || (last == bestLast && idLess(c, best)))) {
			best, bestCount, bestLast = c, count, last
		}
	}
	return best
}

// ObserveScores implements Policy (no-op).
func (p *LFU) ObserveScores(int, []float64) {}

var (
	_ Policy = (*LRU)(nil)
	_ Policy = (*LFU)(nil)
)

// Factory builds one policy instance. k is the model's per-token
// activation count, which score-aware policies use to size their
// accumulation windows (MRS takes top-p = 2k); others ignore it.
type Factory func(k int) Policy

var registry = map[string]Factory{}

// Register makes a policy constructible by name through NewPolicy.
// Registering a duplicate name or a nil factory panics: both are
// programming errors in plugin wiring, caught at init time.
func Register(name string, f Factory) {
	if name == "" {
		panic("cache: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("cache: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cache: Register(%q) called twice", name))
	}
	registry[name] = f
}

// NewPolicy builds the named replacement policy, or returns a
// descriptive error for an unknown name. k is the model's activation
// count (see Factory).
func NewPolicy(name string, k int) (Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cache: unknown policy %q (have %v)", name, Names())
	}
	return f(k), nil
}

// Names lists the registered policies in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("LRU", func(int) Policy { return NewLRU() })
	Register("LFU", func(int) Policy { return NewLFU() })
	Register("MRS", func(k int) Policy { return NewMRS(DefaultAlpha, 2*k) })
}
