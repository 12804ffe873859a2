package cluster

import (
	"reflect"
	"strings"
	"testing"

	"hybrimoe/internal/workload"
)

func views(pending ...int) []ReplicaView {
	out := make([]ReplicaView, len(pending))
	for i, p := range pending {
		out[i] = ReplicaView{Index: i, Pending: p}
	}
	return out
}

func TestRoundRobinRotates(t *testing.T) {
	r := NewRoundRobin()
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, r.Pick(workload.Request{}, views(0, 0, 0)))
	}
	if want := []int{0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation %v, want %v", got, want)
	}
}

func TestLeastLoadedTiesToLowestIndex(t *testing.T) {
	r := NewLeastLoaded()
	if got := r.Pick(workload.Request{}, views(3, 1, 1)); got != 1 {
		t.Fatalf("picked %d, want the first lightest (1)", got)
	}
	if got := r.Pick(workload.Request{}, views(2, 2, 2)); got != 0 {
		t.Fatalf("all-equal pick %d, want 0", got)
	}
}

func TestPowerOfTwoIsDeterministicAndValid(t *testing.T) {
	run := func() []int {
		r := NewPowerOfTwo(42)
		var got []int
		for i := 0; i < 32; i++ {
			p := r.Pick(workload.Request{}, views(4, 0, 2, 7))
			if p < 0 || p > 3 {
				t.Fatalf("pick %d out of range", p)
			}
			got = append(got, p)
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal-seed streams diverged: %v vs %v", a, b)
	}
	// The heaviest replica (3, depth 7) only wins a two-sample draw
	// against nothing: it must never be picked over a lighter sample.
	for _, p := range a {
		if p == 3 {
			t.Fatalf("power-of-two picked the heaviest replica: %v", a)
		}
	}
	if r := NewPowerOfTwo(1); r.Pick(workload.Request{}, views(5)) != 0 {
		t.Fatal("single-replica fleet must pick 0")
	}
}

func TestAffinityPrefersResidency(t *testing.T) {
	r := &Affinity{}
	// Equal load and equal clocks: the readiness discount is the only
	// differentiator, and the most-resident replica wins.
	vs := views(1, 1, 1)
	vs[0].Resident, vs[0].Predicted = 2, 8
	vs[1].Resident, vs[1].Predicted = 6, 8
	vs[2].Resident, vs[2].Predicted = 4, 8
	if got := r.Pick(workload.Request{}, vs); got != 1 {
		t.Fatalf("picked %d, want the most-resident replica 1", got)
	}
	// Ties (including all-zero readiness) go to the lowest index.
	if got := r.Pick(workload.Request{}, views(1, 1, 1)); got != 0 {
		t.Fatalf("zero-readiness tie picked %d, want 0", got)
	}
}

func TestAffinityReadinessDiscountsAvailability(t *testing.T) {
	r := &Affinity{}
	// A perfectly warm replica a full second behind the cold one: warmth
	// only buys ReadyDiscount seconds, so the earlier clock wins.
	vs := views(1, 1)
	vs[1].Clock = 1.0
	vs[1].Resident, vs[1].Predicted = 8, 8
	if got := r.Pick(workload.Request{}, vs); got != 0 {
		t.Fatalf("picked %d; readiness overrode a clock gap far beyond the discount", got)
	}
	// Inside the discount window the warm replica flips the near-tie.
	vs[1].Clock = DefaultReadyDiscount / 2
	if got := r.Pick(workload.Request{}, vs); got != 1 {
		t.Fatalf("picked %d, want the warm replica 1 on a near-tie", got)
	}
}

func TestAffinityDefaultCapIsStrict(t *testing.T) {
	r := &Affinity{}
	// With the zero-value cap only the lightest replicas are eligible:
	// perfect residency one request deeper never wins.
	vs := views(0, 1)
	vs[1].Resident, vs[1].Predicted = 8, 8
	if got := r.Pick(workload.Request{}, vs); got != 0 {
		t.Fatalf("picked %d; strict cap admitted a heavier replica", got)
	}
}

// TestRoutersReturnViewIndex pins the eligibility contract: when the
// view slice holds a non-contiguous subset of the fleet (lifecycle
// filtered out replica 1, say), every router must return the Index of
// one of the views it was handed, not a position.
func TestRoutersReturnViewIndex(t *testing.T) {
	// Replicas 0 and 2 eligible; 1 is dead/warming and absent.
	eligible := []ReplicaView{
		{Index: 0, Pending: 1},
		{Index: 2, Pending: 0},
	}
	routers := []Router{NewRoundRobin(), NewLeastLoaded(), NewPowerOfTwo(9), &Affinity{}}
	for _, r := range routers {
		for i := 0; i < 8; i++ {
			pick := r.Pick(workload.Request{}, eligible)
			if pick != 0 && pick != 2 {
				t.Fatalf("router %q picked %d, not an eligible Index", r.Name(), pick)
			}
		}
	}
}

// TestAffinityDodgesStaleLeases pins lease-awareness: a view whose
// LeaseAge exceeds half the lease TTL loses to fresh views even when
// its frozen clock looks unbeatably available — and when every view is
// stale the filter yields to the full set rather than strand the
// request.
func TestAffinityDodgesStaleLeases(t *testing.T) {
	r := &Affinity{}
	vs := views(0, 0)
	vs[1].Clock = 2.0
	// A lease half the TTL old is still trusted: the earlier clock wins.
	vs[0].LeaseAge = DefaultLeaseTTL / 2
	if got := r.Pick(workload.Request{}, vs); got != 0 {
		t.Fatalf("picked %d; a lease within half the TTL was suspected", got)
	}
	// Replica 0 stalled long ago: clock frozen at 0 (earliest = most
	// attractive), lease far past tolerance. Replica 1 is fresh but
	// later-clocked.
	vs[0].LeaseAge = 0.5
	if got := r.Pick(workload.Request{}, vs); got != 1 {
		t.Fatalf("picked %d; stale lease did not disqualify the frozen clock", got)
	}
	// All stale: better a suspect replica than none.
	vs[1].LeaseAge = 0.5
	if got := r.Pick(workload.Request{}, vs); got != 0 {
		t.Fatalf("picked %d, want 0 when every lease is stale", got)
	}
}

func TestRouterRegistry(t *testing.T) {
	names := RouterNames()
	want := []string{"affinity", "least-loaded", "power-of-two", "round-robin"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("RouterNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		r, err := NewRouter(name, RouterConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Fatalf("router %q reports name %q", name, r.Name())
		}
	}
	if _, err := NewRouter("nope", RouterConfig{Seed: 7}); err == nil {
		t.Fatal("unknown router name should error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error %q does not name the unknown router", err)
	}
}

func TestRegisterRouterPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate registration", func() {
		RegisterRouter("round-robin", func(RouterConfig) Router { return NewRoundRobin() })
	})
	mustPanic("nil factory", func() { RegisterRouter("fresh", nil) })
	mustPanic("empty name", func() {
		RegisterRouter("", func(RouterConfig) Router { return NewRoundRobin() })
	})
}
