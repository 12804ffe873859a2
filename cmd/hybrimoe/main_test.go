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
// committed report: one open-loop plain run under session SLO
// admission, one affinity-routed fleet with admission at the fleet
// door, one disaggregated prefill/decode pool split, one greedy-batched
// plain run whose session admission both defers and sheds and whose
// deadlines are missed, and one churning fleet (a scale-up join, a
// drain, a stall detected with a lost request and re-routes, fleet-door
// sheds and a deferral). Together they print every line format of the
// serve report.
// Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/hybrimoe -run TestServeGolden
// and review the diff like any other code change.
var serveGoldens = []struct {
	name, args string
}{
	{"serve-bursty-slo", "serve -arrivals bursty -rate 8 -requests 6 -decode-cap 8 -slo-ttft-p95 0.25"},
	{"serve-fleet-affinity", "serve -replicas 3 -router affinity -arrivals poisson -rate 12 -requests 8 -decode-cap 8 -slo-ttft-p95 0.6"},
	{"serve-pools", "serve -pools 1:2 -arrivals poisson -rate 12 -requests 8 -decode-cap 8"},
	{"serve-batched-slo", "serve -arrivals poisson -rate 10 -requests 10 -slo-ttft-p95 0.3 -deadline 0.01 -concurrent 3 -batch greedy -decode-cap 4"},
	{"serve-fleet-churn", "serve -replicas 2 -router round-robin -arrivals poisson -rate 20 -requests 16 -decode-cap 2 -concurrent 1 -fail 1@0.6:stall -scale-plan +1@0.5,-1@1.2 -slo-ttft-p95 0.3 -deadline 0.015"},
}

func TestServeGolden(t *testing.T) {
	for _, g := range serveGoldens {
		t.Run(g.name, func(t *testing.T) { checkGolden(t, g.name, g.args) })
	}
}

// TestDemoGolden pins the traced decode summary and its Gantt timeline,
// the only CLI output that draws the engine's recorded spans.
func TestDemoGolden(t *testing.T) {
	checkGolden(t, "demo", "demo -steps 5")
}

// TestExplicitStepsOverridesQuick pins that a -steps given on the
// command line replaces the -quick preset's decode iterations even when
// it equals the flag's default: -quick -steps 50 runs the 50 steps a
// full run does, and -quick alone keeps the preset's 8. abl-warmup
// reads nothing else the presets differ in.
func TestExplicitStepsOverridesQuick(t *testing.T) {
	out := func(args string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(strings.Fields(args), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, pair := range [][2]string{
		{"run abl-warmup -quick -steps 50", "run abl-warmup -steps 50"},
		{"run abl-warmup -quick", "run abl-warmup -quick -steps 8"},
	} {
		if got, want := out(pair[0]), out(pair[1]); got != want {
			t.Errorf("`hybrimoe %s` differs from `hybrimoe %s`:\n%s", pair[0], pair[1],
				diffLines([]byte(want), []byte(got)))
		}
	}
	if out("run abl-warmup -quick") == out("run abl-warmup -steps 50") {
		t.Error("abl-warmup reads the same at 8 and 50 steps; the test cannot tell them apart")
	}
}

// checkGolden runs `hybrimoe args` and compares its output with
// testdata/<name>.golden, rewriting the file under UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name, args string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(strings.Fields(args), &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
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
		t.Fatalf("`hybrimoe %s` drifted from %s:\n%s", args, path, diff)
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
		"run fig8 -short",
		"run fig8 -workers -1",
		"all -steps -1",
		"all -workers -3",
		"run fleet -cluster-workers -1 -quick",
		"all -cluster-workers -3 -quick",
		"demo -steps 0",
		"serve -model Bogus",
		"serve -cache 1.5",
		"serve -requests 0",
		"serve -pools 0:0:1",
		"serve -router bogus -requests 1",
		"serve -replicas 2 -fail 1@NaN:stall",
		"serve -replicas 2 -scale-plan +1@NaN",
		"serve -slo-ttft-p95 -1",
		"serve -slo-tbt-p95 NaN",
		"serve -slo-ttft-p95 +Inf",
		"serve -deadline NaN",
		"serve -deadline Inf",
		"serve -sched exhaustive -requests 2",
		"serve -model Qwen2 -sched exhaustive -requests 2",
		"serve -arrivals bursty -rate Inf -requests 3",
		"serve -arrivals bursty -rate 5e-324 -requests 3",
		"serve -arrivals uniform -rate 5e-324 -requests 3",
		"serve -arrivals poisson -rate Inf -requests 3",
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
