// Package registry is the name → factory table behind every pluggable
// strategy family: intra-layer schedulers, cache policies, prefetchers,
// request schedulers, batch formers and fleet routers. Each family's
// package owns one Registry and wraps it in typed register, construct
// and list functions, passing its own message prefixes.
package registry

import (
	"fmt"
	"reflect"
	"sort"
)

// Registry maps names to factories of the func type F.
type Registry[F any] struct {
	add     string // prefix of Add's panics, e.g. "sched: Register"
	unknown string // prefix of Get's error, e.g. "sched: unknown scheduler"
	byName  map[string]F
}

// New returns an empty registry whose Add panics start with add and
// whose Get error for an unregistered name starts with unknown.
func New[F any](add, unknown string) *Registry[F] {
	return &Registry[F]{add: add, unknown: unknown, byName: map[string]F{}}
}

// Add registers f under name. An empty name, a nil factory or a
// duplicate name panics: each is a programming error in plugin wiring,
// caught at init time.
func (r *Registry[F]) Add(name string, f F) {
	if name == "" {
		panic(r.add + " with empty name")
	}
	if reflect.ValueOf(f).IsNil() {
		panic(fmt.Sprintf("%s(%q) with nil factory", r.add, name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("%s(%q) called twice", r.add, name))
	}
	r.byName[name] = f
}

// Get returns the factory registered under name, or an error that names
// it and lists the registered names.
func (r *Registry[F]) Get(name string) (F, error) {
	f, ok := r.byName[name]
	if !ok {
		return f, fmt.Errorf("%s %q (have %v)", r.unknown, name, r.Names())
	}
	return f, nil
}

// Names lists the registered names in sorted order.
func (r *Registry[F]) Names() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
