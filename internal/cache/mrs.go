package cache

import (
	"fmt"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/tensor"
)

// DefaultAlpha is the averaging coefficient of Eq. (3). Recent scores
// get this weight; history keeps the remainder.
const DefaultAlpha = 0.4

// MRS implements the paper's Minus-Recent-Score replacement policy
// (§IV-D, Eq. 3):
//
//	S = α·TopP(s) + (1-α)·S
//
// where s are the current iteration's routing scores for a layer and
// TopP keeps only the p highest scores (zeros elsewhere). Experts whose
// estimated priority S is lowest are evicted first. Because high scores
// predict future activation even when the expert was not selected
// (Fig. 3b), MRS retains "near-miss" experts that LRU/LFU would drop.
type MRS struct {
	alpha float64
	topP  int
	prio  table[float64]
	// top and inTop are ObserveScores' top-p selection and mask, reused
	// across calls.
	top   []int
	inTop []bool
}

// NewMRS returns an MRS policy with averaging coefficient alpha and the
// given top-p accumulation width (the paper sets p to twice the number
// of activated experts). Panics on invalid parameters.
func NewMRS(alpha float64, topP int) *MRS {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("cache: MRS alpha %v out of (0,1]", alpha))
	}
	if topP <= 0 {
		panic(fmt.Sprintf("cache: MRS topP %d must be positive", topP))
	}
	return &MRS{alpha: alpha, topP: topP}
}

// Name implements Policy.
func (p *MRS) Name() string { return "MRS" }

// Touch implements Policy. MRS priorities move only with scores, so a
// hit by itself does not change the estimate.
func (p *MRS) Touch(id moe.ExpertID) {}

// Admit implements Policy. An expert entering the cache keeps whatever
// score history it has accumulated (none reads as priority 0).
func (p *MRS) Admit(id moe.ExpertID) {}

// Forget implements Policy. Score history survives eviction — the whole
// point is remembering high scorers while they are absent.
func (p *MRS) Forget(id moe.ExpertID) {}

// Victim implements Policy: evict the lowest estimated priority.
func (p *MRS) Victim(candidates []moe.ExpertID) moe.ExpertID {
	if len(candidates) == 0 {
		panic("cache: Victim with no candidates")
	}
	best, bestPrio := candidates[0], p.prio.get(candidates[0])
	for _, c := range candidates[1:] {
		if prio := p.prio.get(c); prio < bestPrio || (prio == bestPrio && idLess(c, best)) {
			best, bestPrio = c, prio
		}
	}
	return best
}

// ObserveScores implements Policy with the Eq. (3) update for one
// layer: the top-p scores accumulate with weight α, every other expert
// of the layer decays by (1-α).
func (p *MRS) ObserveScores(layer int, scores []float64) {
	if len(scores) == 0 {
		return
	}
	topP := p.topP
	if topP > len(scores) {
		topP = len(scores)
	}
	// Top-p over the float64 scores at full precision, ties to the lower
	// index: exactly the first p of a stable descending sort. (Ranking a
	// float32 copy could merge distinct scores and flip the tie-break.)
	p.top = tensor.TopKInto(p.top, scores, topP)
	if cap(p.inTop) < len(scores) {
		p.inTop = make([]bool, len(scores))
	}
	inTop := p.inTop[:len(scores)]
	clear(inTop)
	for _, e := range p.top {
		inTop[e] = true
	}
	prio := p.prio.row(layer, len(scores))
	for e := range scores {
		s := 0.0
		if inTop[e] {
			s = scores[e]
		}
		prio[e] = p.alpha*s + (1-p.alpha)*prio[e]
	}
}

// Priority exposes the current estimate for tests and analysis tools.
func (p *MRS) Priority(id moe.ExpertID) float64 { return p.prio.get(id) }

var _ Policy = (*MRS)(nil)
