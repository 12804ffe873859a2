package cache

import (
	"strings"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

func TestPolicyRegistryRoundTripsBuiltins(t *testing.T) {
	for _, name := range []string{"LRU", "LFU", "MRS"} {
		p, err := NewPolicy(name, 6)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v, want at least the builtins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestPolicyRegistryUnknownName(t *testing.T) {
	_, err := NewPolicy("FIFO", 6)
	if err == nil {
		t.Fatal("unknown policy should error")
	}
	if !strings.Contains(err.Error(), "FIFO") || !strings.Contains(err.Error(), "MRS") {
		t.Fatalf("error %q should name the unknown policy and the registered ones", err)
	}
}

func TestPolicyRegisterDuplicatePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"duplicate":   func() { Register("LRU", func(int) Policy { return NewLRU() }) },
		"empty name":  func() { Register("", func(int) Policy { return NewLRU() }) },
		"nil factory": func() { Register("nil-factory", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s Register should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPolicyRegisterThirdParty(t *testing.T) {
	Register("test-always-first", func(int) Policy { return NewLRU() })
	p, err := NewPolicy("test-always-first", 4)
	if err != nil || p == nil {
		t.Fatalf("third-party policy: %v, %v", p, err)
	}
}

// TestVictimIgnoresCandidateOrder pins the contract the cache's
// remembered per-layer victims rely on, for every registered policy:
//   - Victim depends on the candidate set, never on its order;
//   - the victim of a union of two disjoint sets is the victim of the
//     two sets' victims;
//   - a layer's victim does not move when Touch, Admit or Forget name
//     another layer's experts, or ObserveScores another layer.
//
// The states are tie-heavy — few touches, forgotten experts, coarse
// score levels — so the tie-break, not the policy's ranking, decides
// among many candidates.
func TestVictimIgnoresCandidateOrder(t *testing.T) {
	const layers, experts = 3, 6
	var all []moe.ExpertID
	for l := 0; l < layers; l++ {
		for e := 0; e < experts; e++ {
			all = append(all, id(l, e))
		}
	}
	scores := func(rng *stats.RNG) []float64 {
		s := make([]float64, experts)
		for i := range s {
			s[i] = float64(rng.Intn(3)) / 4
		}
		return s
	}
	// mutate applies one random policy call naming an expert of, or
	// observing scores for, a layer drawn from layerOf.
	mutate := func(p Policy, rng *stats.RNG, layerOf func() int) {
		x := id(layerOf(), rng.Intn(experts))
		switch rng.Intn(4) {
		case 0:
			p.Admit(x)
		case 1:
			p.Touch(x)
		case 2:
			p.Forget(x)
		default:
			p.ObserveScores(x.Layer, scores(rng))
		}
	}
	for _, name := range Names() {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := stats.NewRNG(seed)
			p, err := NewPolicy(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			anyLayer := func() int { return rng.Intn(layers) }
			for op := 0; op < 30; op++ {
				mutate(p, rng, anyLayer)
			}
			cands := make([]moe.ExpertID, 0, len(all))
			for _, i := range rng.Perm(len(all))[:2+rng.Intn(len(all)-1)] {
				cands = append(cands, all[i])
			}
			want := p.Victim(cands)
			for n := 0; n < 50; n++ {
				rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
				if got := p.Victim(cands); got != want {
					t.Fatalf("%s seed %d: Victim(%v) = %v, %v in another order", name, seed, cands, got, want)
				}
				// cands is freshly shuffled, so any cut splits it into
				// random disjoint non-empty sets.
				k := 1 + rng.Intn(len(cands)-1)
				a, b := cands[:k], cands[k:]
				parts := []moe.ExpertID{p.Victim(a), p.Victim(b)}
				if got := p.Victim(parts); got != want {
					t.Fatalf("%s seed %d: Victim(%v ∪ %v) = %v, but the victim of the parts' victims %v is %v",
						name, seed, a, b, want, parts, got)
				}
			}
			layer := rng.Intn(layers)
			own := all[layer*experts : (layer+1)*experts]
			wantLayer := p.Victim(own)
			otherLayer := func() int { return (layer + 1 + rng.Intn(layers-1)) % layers }
			for op := 0; op < 30; op++ {
				mutate(p, rng, otherLayer)
				if got := p.Victim(own); got != wantLayer {
					t.Fatalf("%s seed %d: layer %d's victim moved from %v to %v after op %d on another layer",
						name, seed, layer, wantLayer, got, op)
				}
			}
		}
	}
}
