package cluster

import (
	"math"
	"testing"
)

// The fuzz targets below feed the CLI spec parsers arbitrary strings.
// None may panic, and whatever a parser accepts must be something its
// option either takes as a valid setting or rejects with an error, never
// a value that reaches the fleet malformed. The seeds are the CLI
// examples and the NaN stamps that once passed the options' checks. Run
// one with, for example,
// go test ./internal/cluster -run '^$' -fuzz FuzzParseFailures -fuzztime 10s

// FuzzParsePools checks that an accepted pool spec is one WithPools takes
// and that it round-trips through PoolSpec.String and ParsePools.
func FuzzParsePools(f *testing.F) {
	for _, seed := range []string{"1:2", " 2 : 1 ", "0:0:1", "0:1", "-1:2", "1:NaN", "mixed", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := ParsePools(spec)
		if err != nil || !ps.Pooled() {
			return
		}
		if err := WithPools(ps)(&config{}); err != nil {
			t.Fatalf("ParsePools(%q) = %+v, which WithPools rejects: %v", spec, ps, err)
		}
		again, err := ParsePools(ps.String())
		if err != nil {
			t.Fatalf("ParsePools(%q) rejected its own rendering of %q: %v", ps.String(), spec, err)
		}
		if again != ps {
			t.Fatalf("pool spec %q round-tripped to %+v, want %+v", spec, again, ps)
		}
	})
}

// FuzzParseFailures checks that every parsed failure is either rejected
// by WithFailure or carries a finite, non-negative time and a known kind.
func FuzzParseFailures(f *testing.F) {
	for _, seed := range []string{
		"1@0.3:stall,2@0.8:death", "0@0.5:death", "1@0.3", "1@NaN:stall", "1@Inf:death",
		"1@-Inf", "1@0.3:sleep", "@", "1@", ",,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		failures, err := ParseFailures(spec)
		if err != nil {
			return
		}
		for _, fl := range failures {
			if WithFailure(fl.Replica, fl.At, fl.Kind)(&config{}) != nil {
				continue
			}
			if fl.At < 0 || math.IsNaN(fl.At) || math.IsInf(fl.At, 0) {
				t.Fatalf("WithFailure accepted time %v from %q", fl.At, spec)
			}
			if fl.Kind != FailStall && fl.Kind != FailDeath {
				t.Fatalf("WithFailure accepted kind %v from %q", fl.Kind, spec)
			}
		}
	})
}

// FuzzParseScalePlan checks that every parsed scale event is either
// rejected by WithScalePlan or carries a finite, non-negative time and a
// non-zero delta.
func FuzzParseScalePlan(f *testing.F) {
	for _, seed := range []string{
		"+1@0.5,-2@1.2", "+1@NaN", "-1@NaN", "+1@Inf", "0@0.5", "+1@-0.5", "+1", "1@1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseScalePlan(spec)
		if err != nil {
			return
		}
		for _, ev := range plan {
			if WithScalePlan(ev)(&config{}) != nil {
				continue
			}
			if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
				t.Fatalf("WithScalePlan accepted time %v from %q", ev.At, spec)
			}
			if ev.Delta == 0 {
				t.Fatalf("WithScalePlan accepted a zero delta from %q", spec)
			}
		}
	})
}
