package reqsched

import (
	"fmt"

	"hybrimoe/internal/registry"
)

// Decoding reports whether the request's next step is a decode
// iteration (its prompt has run, or it never had one).
func (r Request) Decoding() bool { return r.Prefilled || r.PromptTokens <= 0 }

// StepTokens reports how many tokens the request contributes to its
// next engine iteration: the whole prompt at prefill, one at decode.
// Batch formers budget on it.
func (r Request) StepTokens() int {
	if r.Decoding() {
		return 1
	}
	return r.PromptTokens
}

// BatchPolicy forms the batch of requests that advance together as one
// merged engine iteration — the continuous-batching counterpart of
// Scheduler, which only orders requests. Form receives the scheduler's
// pick (lead) and returns the indices into active of every request to
// step this iteration. The returned slice must be non-empty, free of
// duplicates, within range and contain lead; its order is the order the
// Session emits the batch's StepEvents in. Returning just {lead}
// reproduces the unbatched loop exactly.
type BatchPolicy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Form picks this iteration's batch. active is never empty, lead is
	// a valid index into it, and now is the simulation clock.
	Form(now float64, active []Request, lead int) []int
}

// BatchFactory builds one batch former for a Session from the
// configured token budget. Factories validate the budget eagerly and
// return a descriptive error for values the policy cannot work with.
type BatchFactory func(budget int) (BatchPolicy, error)

var batchFormers = registry.New[BatchFactory]("reqsched: RegisterBatch", "reqsched: unknown batch policy")

// RegisterBatch makes a batch former constructible by name through
// NewBatch. Registering a duplicate name or a nil factory panics: both
// are programming errors in plugin wiring, caught at init time.
func RegisterBatch(name string, f BatchFactory) { batchFormers.Add(name, f) }

// NewBatch builds the named batch former with the given token budget,
// or returns a descriptive error for an unknown name or a budget the
// policy rejects.
func NewBatch(name string, budget int) (BatchPolicy, error) {
	f, err := batchFormers.Get(name)
	if err != nil {
		return nil, err
	}
	return f(budget)
}

// BatchNames lists the registered batch formers in sorted order.
func BatchNames() []string { return batchFormers.Names() }

func init() {
	RegisterBatch("none", func(int) (BatchPolicy, error) { return NoBatch{}, nil })
	RegisterBatch("greedy", func(budget int) (BatchPolicy, error) {
		if budget < 1 {
			return nil, fmt.Errorf("reqsched: greedy batch budget %d must be at least 1 token", budget)
		}
		return &GreedyBatch{Budget: budget}, nil
	})
	RegisterBatch("phase-aware", func(budget int) (BatchPolicy, error) {
		if budget < 1 {
			return nil, fmt.Errorf("reqsched: phase-aware batch budget %d must be at least 1 token", budget)
		}
		return &PhaseAwareBatch{Budget: budget}, nil
	})
}

// NoBatch advances only the scheduler's pick — the default, and
// behaviour-identical to the Session loop before batch formers existed.
// It accepts any budget (there is nothing to budget).
type NoBatch struct{}

// Name implements BatchPolicy.
func (NoBatch) Name() string { return "none" }

// Form implements BatchPolicy.
func (NoBatch) Form(_ float64, _ []Request, lead int) []int { return []int{lead} }

// GreedyBatch packs the merged iteration up to a token budget: the lead
// always rides (a batch must make progress even when the lead's prompt
// alone exceeds the budget), then the remaining active requests join in
// admission order while their step tokens fit. Phases may mix — a
// prefill chunk and decode tokens can share one iteration, the way
// chunked-prefill continuous batching fills leftover budget.
type GreedyBatch struct {
	// Budget is the maximum total step tokens per merged iteration.
	Budget int
}

// Name implements BatchPolicy.
func (*GreedyBatch) Name() string { return "greedy" }

// Form implements BatchPolicy.
func (g *GreedyBatch) Form(_ float64, active []Request, lead int) []int {
	batch := []int{lead}
	left := g.Budget - active[lead].StepTokens()
	for i := range active {
		if i == lead {
			continue
		}
		if cost := active[i].StepTokens(); cost <= left {
			batch = append(batch, i)
			left -= cost
		}
	}
	return batch
}

// PhaseAwareBatch packs like GreedyBatch but never mixes phases: a
// decode lead batches only with other decode-phase requests, a prefill
// lead only with other prefills still within budget. Keeping decode
// batches pure protects TBT from prefill-length iterations — the
// prefill/decode segregation production schedulers apply before
// resorting to chunking.
type PhaseAwareBatch struct {
	// Budget is the maximum total step tokens per merged iteration.
	Budget int
}

// Name implements BatchPolicy.
func (*PhaseAwareBatch) Name() string { return "phase-aware" }

// Form implements BatchPolicy.
func (p *PhaseAwareBatch) Form(_ float64, active []Request, lead int) []int {
	batch := []int{lead}
	phase := active[lead].Decoding()
	left := p.Budget - active[lead].StepTokens()
	for i := range active {
		if i == lead || active[i].Decoding() != phase {
			continue
		}
		if cost := active[i].StepTokens(); cost <= left {
			batch = append(batch, i)
			left -= cost
		}
	}
	return batch
}
