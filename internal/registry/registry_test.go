package registry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

type factory func() int

func newTable() *Registry[factory] {
	r := New[factory]("test: Register", "test: unknown thing")
	r.Add("beta", func() int { return 2 })
	r.Add("alpha", func() int { return 1 })
	return r
}

// mustPanicWith runs f and checks it panics with exactly want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		got := recover()
		if got == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	f()
}

func TestAddPanicsOnMisuse(t *testing.T) {
	r := newTable()
	mustPanicWith(t, "test: Register with empty name", func() { r.Add("", func() int { return 0 }) })
	mustPanicWith(t, `test: Register("gamma") with nil factory`, func() { r.Add("gamma", nil) })
	mustPanicWith(t, `test: Register("alpha") called twice`, func() { r.Add("alpha", func() int { return 9 }) })
	// None of the rejected registrations touched the table.
	if got, want := r.Names(), []string{"alpha", "beta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v after rejected adds, want %v", got, want)
	}
	f, err := r.Get("alpha")
	if err != nil || f() != 1 {
		t.Fatalf("Get(alpha) = %v, %v after a rejected duplicate, want the original factory", f, err)
	}
}

func TestGetReturnsRegisteredFactory(t *testing.T) {
	r := newTable()
	for name, want := range map[string]int{"alpha": 1, "beta": 2} {
		f, err := r.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if got := f(); got != want {
			t.Fatalf("Get(%q)() = %d, want %d", name, got, want)
		}
	}
}

func TestGetUnknownNameListsSortedNames(t *testing.T) {
	f, err := newTable().Get("zeta")
	if err == nil {
		t.Fatal("Get of an unregistered name succeeded")
	}
	if f != nil {
		t.Fatal("Get of an unregistered name returned a factory")
	}
	if want := `test: unknown thing "zeta" (have [alpha beta])`; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestNamesSorted(t *testing.T) {
	r := New[factory]("test: Register", "test: unknown thing")
	if got := r.Names(); len(got) != 0 {
		t.Fatalf("empty registry Names() = %v", got)
	}
	for _, name := range strings.Fields("delta alpha charlie bravo") {
		r.Add(name, func() int { return 0 })
	}
	if got, want := r.Names(), []string{"alpha", "bravo", "charlie", "delta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}
