package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzDiff feeds the -diff mode two arbitrary snapshots, decoded as
// load decodes a file. No input may panic, and the regression count
// diff returns must match its summary line and never exceed the
// compared count. The seeds are a snapshot of transcript, a zero old
// value (the incomparable row) and a change from the smallest positive
// float to 1e308, whose delta overflows. Run it with
// go test ./cmd/benchjson -run '^$' -fuzz '^FuzzDiff$' -fuzztime 10s
func FuzzDiff(f *testing.F) {
	snap, err := parse(strings.NewReader(transcript))
	if err != nil {
		f.Fatal(err)
	}
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	one := func(v string) []byte {
		return []byte(`{"benchmarks":[{"pkg":"hybrimoe","name":"BenchmarkA-2","runs":1,"metrics":{"ns/op":` + v + `}}]}`)
	}
	f.Add(snapJSON, snapJSON)
	f.Add(one("0"), one("5"))
	f.Add(one("5e-324"), one("1e308"))
	f.Fuzz(func(t *testing.T, oldJSON, newJSON []byte) {
		oldO, err := decode(bytes.NewReader(oldJSON))
		if err != nil {
			return
		}
		newO, err := decode(bytes.NewReader(newJSON))
		if err != nil {
			return
		}
		table, regressions := diff(oldO, newO, 15)
		// The summary is the last line; names and units come before it.
		summary := table[strings.LastIndex(strings.TrimSuffix(table, "\n"), "\n")+1:]
		var compared, reported int
		if _, err := fmt.Sscanf(summary, "%d metric(s) compared, %d regressed.\n", &compared, &reported); err != nil {
			t.Fatalf("summary line %q does not parse: %v", summary, err)
		}
		if reported != regressions || regressions > compared {
			t.Fatalf("diff returned %d regressions, summary %q", regressions, summary)
		}
	})
}
