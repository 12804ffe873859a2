package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// transcript is a `go test -bench -benchmem` run of the root package,
// kept verbatim: the shape parse meets in CI.
const transcript = `goos: linux
goarch: amd64
pkg: hybrimoe
cpu: Intel(R) Xeon(R) Processor
BenchmarkSchedulerPlanDecode-2   	     200	      1470 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineDecodeStep-2      	     200	    804634 ns/op	    5194 B/op	      40 allocs/op
BenchmarkReqSchedNext/fcfs-2     	     200	       259.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkReqSchedNext/round-robin-2         	     200	       118.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkReqSchedNext/sjf-2                 	     200	       432.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkReqSchedNext/edf-2                 	     200	      2260 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	hybrimoe	0.226s
`

// FuzzParse feeds parse arbitrary bench text. No input may panic, and
// whatever parse accepts must encode as JSON with only finite metrics.
// The seeds are a real transcript and the NaN and infinite values that
// once reached the encoder. Run it with
// go test ./cmd/benchjson -run '^$' -fuzz FuzzParse -fuzztime 10s
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		transcript,
		"BenchmarkA-2 1 NaN ns/op\n",
		"BenchmarkA-2 1 +Inf ns/op\n",
		"BenchmarkA-2 1 5 ns/op -Inf speedup\n",
		"BenchmarkA-2 1 1e999 ns/op\n",
		"pkg: x\nBenchmarkB 3\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		o, err := parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, b := range o.Benchmarks {
			for unit, v := range b.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parse accepted %s %s = %v from %q", b.Name, unit, v, text)
				}
			}
		}
		if _, err := json.Marshal(o); err != nil {
			t.Fatalf("parse accepted %q, which does not encode: %v", text, err)
		}
	})
}

// TestParseRejectsNonFinite pins the error a NaN metric gets: it quotes
// the offending line, so the failing benchmark is named.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, line := range []string{"BenchmarkA-2 1 NaN ns/op", "BenchmarkA-2 1 +Inf ns/op"} {
		_, err := parse(strings.NewReader("BenchmarkOK 3 9 ns/op\n" + line + "\n"))
		if err == nil {
			t.Fatalf("parse accepted %q", line)
		}
		if !strings.Contains(err.Error(), line) {
			t.Fatalf("error %q does not quote the line %q", err, line)
		}
	}
}
