package reqsched

import "hybrimoe/internal/registry"

// Factory builds one scheduler instance for a Session. Stateful policies
// (the round-robin cursor) need a fresh instance per session, so the
// registry hands out factories rather than shared singletons.
type Factory func() Scheduler

var schedulers = registry.New[Factory]("reqsched: Register", "reqsched: unknown request scheduler")

// Register makes a request scheduler constructible by name through New.
// Registering a duplicate name or a nil factory panics: both are
// programming errors in plugin wiring, caught at init time.
func Register(name string, f Factory) { schedulers.Add(name, f) }

// New builds the named scheduler, or returns a descriptive error for an
// unknown name.
func New(name string) (Scheduler, error) {
	f, err := schedulers.Get(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Names lists the registered schedulers in sorted order.
func Names() []string { return schedulers.Names() }

func init() {
	Register("fcfs", func() Scheduler { return NewFCFS() })
	Register("round-robin", func() Scheduler { return NewRoundRobin() })
	Register("sjf", func() Scheduler { return NewSJF() })
	Register("edf", func() Scheduler { return NewEDF() })
}
