package sched

import "hybrimoe/internal/registry"

// Config carries the environment a scheduler factory may consult.
// Factories that need none of it ignore the argument.
type Config struct {
	// GPULayer reports whether a layer is statically mapped to the GPU.
	// Only layer-mapped strategies (the llama.cpp-style static split)
	// consult it; it may be nil otherwise.
	GPULayer func(layer int) bool
}

// Factory builds one scheduler instance for an engine run.
type Factory func(Config) Scheduler

var schedulers = registry.New[Factory]("sched: Register", "sched: unknown scheduler")

// Register makes a scheduler constructible by name through New.
// Registering a duplicate name or a nil factory panics: both are
// programming errors in plugin wiring, caught at init time.
func Register(name string, f Factory) { schedulers.Add(name, f) }

// New builds the named scheduler, or returns a descriptive error for an
// unknown name.
func New(name string, c Config) (Scheduler, error) {
	f, err := schedulers.Get(name)
	if err != nil {
		return nil, err
	}
	return f(c), nil
}

// Names lists the registered schedulers in sorted order.
func Names() []string { return schedulers.Names() }

func init() {
	Register("hybrimoe", func(Config) Scheduler { return NewHybriMoE() })
	Register("ktrans-static", func(Config) Scheduler { return NewKTransStatic() })
	Register("gpu-centric", func(Config) Scheduler { return NewGPUCentric() })
	Register("static-split", func(c Config) Scheduler { return NewStaticSplit(c.GPULayer) })
	Register("exhaustive", func(Config) Scheduler { return NewExhaustive() })
	Register("expert-parallel", func(Config) Scheduler { return NewExpertParallel() })
}
