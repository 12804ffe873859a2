package engine

import (
	"fmt"
	"math"

	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/reqsched"
)

// Option configures an engine at construction. Options validate their
// arguments eagerly: New reports the first invalid option instead of
// silently substituting defaults.
type Option func(*settings) error

// settings collects the resolved construction parameters. Defaults are
// applied up front and only an option overwrites them, so an explicit
// zero cache ratio is a real baseline, never mistaken for "unset".
type settings struct {
	cacheRatio    float64
	seed          uint64
	warmupIters   int
	recordTrace   bool
	validatePlans bool
	prefetcher    prefetch.Prefetcher
	reqSched      string
	batchPolicy   string
	batchBudget   int
	admission     AdmissionPolicy
}

func defaultSettings() settings {
	return settings{
		cacheRatio:  0.25,
		warmupIters: 32,
		reqSched:    "round-robin",
		batchPolicy: "none",
	}
}

// WithCacheRatio sets the GPU expert cache ratio (0.25, 0.50, 0.75 in
// the paper; 0.25 when unset). An explicit 0 is honoured as the
// zero-cache baseline; ratios outside [0, 1] are rejected.
func WithCacheRatio(ratio float64) Option {
	return func(s *settings) error {
		if math.IsNaN(ratio) || ratio < 0 || ratio > 1 {
			return fmt.Errorf("engine: cache ratio %v outside [0, 1]", ratio)
		}
		s.cacheRatio = ratio
		return nil
	}
}

// WithSeed sets the seed driving the synthetic routing trace
// (deterministic runs).
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithWarmupIters sets the number of historical iterations used to
// frequency-warm the cache before measurement (32 when unset). An
// explicit 0 disables warm-up; negative counts are rejected.
func WithWarmupIters(iters int) Option {
	return func(s *settings) error {
		if iters < 0 {
			return fmt.Errorf("engine: warmup iterations %d must be non-negative", iters)
		}
		s.warmupIters = iters
		return nil
	}
}

// WithTraceRecording keeps per-resource span timelines for Gantt output.
func WithTraceRecording() Option {
	return func(s *settings) error {
		s.recordTrace = true
		return nil
	}
}

// WithPlanValidation runs sched.Plan.Validate on every layer plan
// (tests; expensive).
func WithPlanValidation() Option {
	return func(s *settings) error {
		s.validatePlans = true
		return nil
	}
}

// WithRequestScheduler selects the request-level scheduling policy the
// engine's Sessions advance requests with, by reqsched registry name
// ("round-robin" when unset — the historical Session behaviour; "fcfs",
// "sjf" and "edf" among the built-ins). Unknown names are rejected
// eagerly with the registered set. Each Session builds its own policy
// instance, so stateful policies never share cursors across sessions.
func WithRequestScheduler(name string) Option {
	return func(s *settings) error {
		if _, err := reqsched.New(name); err != nil {
			return err
		}
		s.reqSched = name
		return nil
	}
}

// WithBatchPolicy selects the batch former the engine's Sessions merge
// concurrent requests' iterations with, by reqsched batch-registry name
// plus a token budget per merged iteration ("none" when unset — every
// step advances one request, the historical Session behaviour; "greedy"
// packs any phases up to the budget, "phase-aware" keeps decode batches
// free of prefill work). Unknown names and budgets the policy rejects
// (the packing policies need at least 1 token) error eagerly. Each
// Session builds its own policy instance.
func WithBatchPolicy(name string, budget int) Option {
	return func(s *settings) error {
		if _, err := reqsched.NewBatch(name, budget); err != nil {
			return err
		}
		s.batchPolicy = name
		s.batchBudget = budget
		return nil
	}
}

// WithAdmission installs an admission controller on the engine's
// Sessions: every pending request passes through policy before entering
// the active set, with the live TTFT/TBT quantiles in hand, and may be
// deferred or shed (emitting PhaseDeferred/PhaseShed events). Nil is
// rejected; omit the option for unconditional admission.
func WithAdmission(policy AdmissionPolicy) Option {
	return func(s *settings) error {
		if policy == nil {
			return fmt.Errorf("engine: WithAdmission(nil)")
		}
		s.admission = policy
		return nil
	}
}

// WithPrefetcher overrides the framework's named prefetcher with a
// concrete instance (ablation studies vary the lookahead window this
// way).
func WithPrefetcher(p prefetch.Prefetcher) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("engine: WithPrefetcher(nil)")
		}
		s.prefetcher = p
		return nil
	}
}
