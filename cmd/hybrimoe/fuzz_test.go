package main

import (
	"io"
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sched"
)

// fuzzValues are the values FuzzRun may give any flag that does not
// scale the work: zero, negatives, NaN, infinities, the smallest
// subnormal, a near-overflow float, and junk.
var fuzzValues = []string{"0", "-1", "1", "2", "0.3", "NaN", "Inf", "-Inf", "+Inf", "5e-324", "1e308", "x", ""}

// fuzzFlag is one flag FuzzRun may set, with the values it draws for
// it. A capped flag draws only its own values; the others also draw
// fuzzValues.
type fuzzFlag struct {
	name   string
	values []string
	capped bool
}

// small is the value set of the flags that scale the work: -requests,
// -steps, -replicas, -gpus, -concurrent and -decode-cap. Large values
// only make a run slow or exhaust memory (serve -requests 100000000
// -decode-cap 0 runs out of memory), so these stay at a few units.
var small = []string{"-1", "0", "1", "2", "3", "NaN", "x"}

// names joins a registry's names with an unknown one.
func names(have []string) []string { return append(have[:len(have):len(have)], "bogus") }

// fuzzCommands maps each fuzzed subcommand to its flag vocabulary. An
// invocation starts with base, which shrinks the default run to a few
// milliseconds; a drawn flag may override it.
var fuzzCommands = []struct {
	name  string
	base  []string
	flags []fuzzFlag
}{
	{"serve", []string{"-requests", "2"}, []fuzzFlag{
		{name: "model", values: []string{"DeepSeek", "Mixtral", "Qwen2", "Bogus"}},
		{name: "cache", values: []string{"0.25", "1"}},
		{name: "gpus", values: small, capped: true},
		{name: "sched", values: names(sched.Names())},
		{name: "requests", values: small, capped: true},
		{name: "concurrent", values: small, capped: true},
		{name: "decode-cap", values: small, capped: true},
		{name: "reqsched", values: names(reqsched.Names())},
		{name: "batch", values: names(reqsched.BatchNames())},
		{name: "batch-budget", values: []string{"1", "64"}},
		{name: "slo-ttft-p95", values: []string{"0.25", "1e-9"}},
		{name: "slo-tbt-p95", values: []string{"0.05", "1e-9"}},
		{name: "deadline", values: []string{"0.05", "1e-9"}},
		{name: "arrivals", values: []string{"none", "poisson", "uniform", "bursty", "bogus"}},
		{name: "rate", values: []string{"4", "12", "1e-300"}},
		{name: "replicas", values: small, capped: true},
		{name: "router", values: names(cluster.RouterNames())},
		{name: "fail", values: []string{"1@0.3:stall", "0@0.5:death", "1@0:death,0@0:stall", "2@0.1:death", "1@NaN:stall", "1@-1:death", "@:"}},
		{name: "scale-plan", values: []string{"+1@0.5", "-1@0.2", "+1@0,-2@0.1", "-3@0", "+1@NaN", "@"}},
		{name: "pools", values: []string{"1:2", "2:1", "1:1", "0:1", "1:0", "0:0:1", ":"}},
		{name: "seed", values: []string{"7", "18446744073709551615"}},
		{name: "bogus"},
	}},
	{"demo", []string{"-steps", "2"}, []fuzzFlag{
		{name: "model", values: []string{"DeepSeek", "Mixtral", "Qwen2", "Bogus"}},
		{name: "cache", values: []string{"0.25", "1"}},
		{name: "steps", values: small, capped: true},
		{name: "seed", values: []string{"7", "18446744073709551615"}},
		{name: "bogus"},
	}},
}

// fuzzArgs decodes an invocation from data: the first byte picks the
// subcommand, which brings its base flags, then each pair of bytes sets
// one flag to one of its values, until data runs out or eight flags are
// set.
func fuzzArgs(data []byte) []string {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	cmd := fuzzCommands[next(len(fuzzCommands))]
	args := append([]string{cmd.name}, cmd.base...)
	for n := 0; n < 8 && len(data) > 0; n++ {
		fl := cmd.flags[next(len(cmd.flags))]
		values := fl.values
		if !fl.capped {
			values = append(values[:len(values):len(values)], fuzzValues...)
		}
		args = append(args, "-"+fl.name, values[next(len(values))])
	}
	return args
}

// FuzzRun feeds run serve and demo invocations decoded by fuzzArgs. Any
// of them may fail, but none may panic. Run it with
// go test ./cmd/hybrimoe -run '^$' -fuzz FuzzRun -fuzztime 10s
func FuzzRun(f *testing.F) {
	for _, seed := range [][]byte{
		{0},               // serve
		{1},               // demo
		{1, 2, 2, 1, 2},   // demo -steps 1 -cache 0
		{0, 15, 4, 17, 2}, // serve -replicas 3 -fail 1@0:death,0@0:stall
		{0, 19, 0, 4, 4},  // serve -pools 1:2 -requests 3
		{0, 1, 7, 6, 1},   // serve -cache NaN -decode-cap 0
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		args := fuzzArgs(data)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("hybrimoe %s panicked: %v", strings.Join(args, " "), r)
			}
		}()
		_ = run(args, io.Discard)
	})
}
