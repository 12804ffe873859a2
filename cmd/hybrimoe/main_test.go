package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serveGoldens are the CLI's serving smoke invocations, each pinned to a
// committed report: one open-loop Session under SLO admission, one
// affinity-routed fleet with admission at the fleet door, and one
// disaggregated prefill/decode pool split. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/hybrimoe -run TestServeGolden
// and review the diff like any other code change.
var serveGoldens = []struct {
	name, args string
}{
	{"serve-bursty-slo", "serve -arrivals bursty -rate 8 -requests 6 -decode-cap 8 -slo-ttft-p95 0.25"},
	{"serve-fleet-affinity", "serve -replicas 3 -router affinity -arrivals poisson -rate 12 -requests 8 -decode-cap 8 -slo-ttft-p95 0.6"},
	{"serve-pools", "serve -pools 1:2 -arrivals poisson -rate 12 -requests 8 -decode-cap 8"},
}

func TestServeGolden(t *testing.T) {
	for _, g := range serveGoldens {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(strings.Fields(g.args), &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if diff := diffLines(want, buf.Bytes()); diff != "" {
				t.Fatalf("`hybrimoe %s` drifted from %s:\n%s", g.args, path, diff)
			}
		})
	}
}

// TestRunRejectsBadInput checks that malformed invocations return errors
// instead of printing a report.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range []string{
		"",
		"bogus",
		"run",
		"run fig99",
		"run fig8 -steps 0",
		"run fig8 -workers -1",
		"all -steps -1",
		"all -workers -3",
		"demo -steps 0",
		"serve -model Bogus",
		"serve -cache 1.5",
		"serve -requests 0",
		"serve -pools 0:0:1",
		"serve -replicas 2 -fail 1@NaN:stall",
		"serve -replicas 2 -scale-plan +1@NaN",
		"serve -slo-ttft-p95 -1",
		"serve -slo-tbt-p95 NaN",
		"serve -slo-ttft-p95 +Inf",
		"serve -deadline NaN",
		"serve -deadline Inf",
		"serve -sched exhaustive -requests 2",
		"serve -model Qwen2 -sched exhaustive -requests 2",
	} {
		var buf bytes.Buffer
		if err := run(strings.Fields(args), &buf); err == nil {
			t.Errorf("`hybrimoe %s` succeeded, want an error", args)
		}
	}
}

// diffLines describes the first line where two outputs diverge; ""
// means byte-identical.
func diffLines(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return fmt.Sprintf("outputs differ in length only: golden %d lines, got %d",
		len(wantLines), len(gotLines))
}
