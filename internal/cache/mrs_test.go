package cache

import (
	"math"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/trace"
)

func TestNewMRSPanics(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		topP  int
	}{{0, 4}, {-1, 4}, {1.5, 4}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMRS(%v,%d) should panic", c.alpha, c.topP)
				}
			}()
			NewMRS(c.alpha, c.topP)
		}()
	}
}

func TestMRSEquation3(t *testing.T) {
	// S = α·TopP(s) + (1-α)·S with p=2: only the two top scores
	// accumulate; everyone else decays.
	p := NewMRS(0.5, 2)
	scores := []float64{0.5, 0.3, 0.15, 0.05}
	p.ObserveScores(0, scores)
	if got := p.Priority(id(0, 0)); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("S(top1) = %v, want 0.25", got)
	}
	if got := p.Priority(id(0, 1)); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("S(top2) = %v, want 0.15", got)
	}
	if got := p.Priority(id(0, 2)); got != 0 {
		t.Fatalf("S(rank3) = %v, want 0 (outside top-p)", got)
	}
	// Second observation: decay plus accumulation.
	p.ObserveScores(0, []float64{0.1, 0.6, 0.2, 0.1})
	// Expert 0 fell out of top-2: S = 0.5*0 + 0.5*0.25 = 0.125.
	if got := p.Priority(id(0, 0)); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("decayed S = %v, want 0.125", got)
	}
	// Expert 1 now top: S = 0.5*0.6 + 0.5*0.15 = 0.375.
	if got := p.Priority(id(0, 1)); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("accumulated S = %v, want 0.375", got)
	}
}

func TestMRSTopPWiderThanScores(t *testing.T) {
	p := NewMRS(0.5, 100)
	p.ObserveScores(0, []float64{0.6, 0.4})
	if p.Priority(id(0, 0)) != 0.3 || p.Priority(id(0, 1)) != 0.2 {
		t.Fatal("topP wider than score vector should accumulate everything")
	}
}

func TestMRSLayersIndependent(t *testing.T) {
	p := NewMRS(0.5, 1)
	p.ObserveScores(0, []float64{1, 0})
	p.ObserveScores(1, []float64{0, 1})
	if p.Priority(id(0, 0)) == 0 || p.Priority(id(1, 1)) == 0 {
		t.Fatal("per-layer scores not tracked")
	}
	if p.Priority(id(1, 0)) != 0 {
		t.Fatal("layer crosstalk in MRS state")
	}
}

func TestMRSVictimIsLowestPriority(t *testing.T) {
	p := NewMRS(0.5, 4)
	p.ObserveScores(0, []float64{0.4, 0.3, 0.2, 0.1})
	cands := []moe.ExpertID{id(0, 0), id(0, 2), id(0, 3)}
	if v := p.Victim(cands); v != id(0, 3) {
		t.Fatalf("victim = %v, want lowest-score 0.3", v)
	}
}

func TestMRSSurvivesEviction(t *testing.T) {
	// Score history must persist across eviction (the "remember the
	// near-misses" property distinguishing MRS from LRU).
	p := NewMRS(0.5, 4)
	p.ObserveScores(0, []float64{0.9, 0.05, 0.03, 0.02})
	p.Admit(id(0, 0))
	p.Forget(id(0, 0))
	if p.Priority(id(0, 0)) == 0 {
		t.Fatal("priority lost on eviction")
	}
}

func TestMRSEmptyScoresNoop(t *testing.T) {
	p := NewMRS(0.5, 4)
	p.ObserveScores(0, nil) // must not panic
}

// MRS must beat LRU on hit rate when driving both with the same
// synthetic trace at tight capacity — the Figure 9 effect in miniature.
func TestMRSBeatsLRUOnSyntheticTrace(t *testing.T) {
	cfg := moe.DeepSeek()
	capacity := cfg.CacheCapacity(0.25)

	run := func(p Policy, seed uint64) float64 {
		g := trace.New(cfg, trace.DefaultOptions(seed))
		c := New(capacity, p)
		// Warm with layer-0-major expert order.
		var warm []moe.ExpertID
		for l := 0; l < cfg.Layers; l++ {
			for e := 0; e < cfg.RoutedExperts; e++ {
				warm = append(warm, id(l, e))
			}
		}
		c.Warm(warm)
		const iters = 200
		loads := make([]int, cfg.RoutedExperts)
		for i := 0; i < iters; i++ {
			g.Advance()
			for l := 0; l < cfg.Layers; l++ {
				scores := g.Scores(l)
				active := g.Activated(l)
				clear(loads)
				for _, e := range active {
					loads[e] = 1
				}
				guard := Guard{Layer: l, Loads: loads}
				for _, e := range active {
					eid := id(l, e)
					if !c.Lookup(eid) {
						c.Insert(eid, guard)
					}
				}
				c.ObserveScores(l, scores)
			}
			if i == 49 {
				c.ResetStats() // measure steady state
			}
		}
		return c.HitRate()
	}

	mrs := run(NewMRS(DefaultAlpha, 2*cfg.ActivatedExperts), 77)
	lru := run(NewLRU(), 77)
	t.Logf("hit rates: MRS=%.3f LRU=%.3f", mrs, lru)
	if mrs <= lru {
		t.Fatalf("MRS (%.3f) should beat LRU (%.3f) at 25%% capacity", mrs, lru)
	}
}
