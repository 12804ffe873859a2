package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceGoldens pin the generator through the public command: one
// 513-token prefill per model (the per-token routing draw, on an odd
// token count), one decode activation dump and one request trace.
// Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/tracegen -run TestTraceGolden
// only when a change is meant to move the synthetic trace, and review
// the diff like any other code change.
var traceGoldens = []struct {
	name, args string
}{
	{"prefill-deepseek-513", "-mode prefill -model DeepSeek -tokens 513"},
	{"prefill-qwen2-513", "-mode prefill -model Qwen2 -tokens 513"},
	{"prefill-mixtral-513", "-mode prefill -model Mixtral -tokens 513"},
	{"decode-deepseek", "-mode decode -model DeepSeek -iters 32 -layer 3"},
	{"requests-poisson", "-mode requests -requests 6 -arrivals poisson -rate 8 -seed 7 -decode-cap 8"},
}

func TestTraceGolden(t *testing.T) {
	for _, g := range traceGoldens {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(strings.Fields(g.args), &buf, io.Discard); err != nil {
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
				t.Fatalf("`tracegen %s` drifted from %s:\n%s", g.args, path, diff)
			}
		})
	}
}

// TestRunRejectsBadInput checks that malformed invocations return errors
// naming the offending input instead of panicking or printing a trace.
func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		args, want string
	}{
		{"-mode prefill -tokens 0", "-tokens"},
		{"-mode prefill -tokens -3", "-tokens"},
		{"-mode decode -iters -1", "-iters"},
		{"-mode bogus", "bogus"},
		{"-model Bogus", "Bogus"},
		{"-layer 99", "layer 99"},
		{"-mode prefill -layer -1", "layer -1"},
		{"-mode requests -requests 0", "-requests"},
		{"-mode requests -decode-cap -1", "-decode-cap"},
		{"-mode requests -arrivals bogus", "bogus"},
		{"-mode requests -arrivals bursty -rate Inf", "rate"},
		{"-mode requests -arrivals uniform -rate 5e-324", "rate"},
		{"-bogus", "bogus"},
		{"-mode decode extra", "extra"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			err := run(strings.Fields(tc.args), &out, io.Discard)
			if err == nil {
				t.Fatalf("`tracegen %s` succeeded, want an error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("`tracegen %s` error %q does not mention %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("`tracegen %s` wrote %d bytes before failing", tc.args, out.Len())
			}
		})
	}
}

// TestPrefillLoadsConserveTokens checks the prefill dump's invariant on
// every model: the per-expert loads sum to tokens × activated experts,
// down to a single token.
func TestPrefillLoadsConserveTokens(t *testing.T) {
	for model, k := range map[string]int{"DeepSeek": 6, "Qwen2": 8, "Mixtral": 2} {
		for _, tokens := range []int{1, 2, 35} {
			var out bytes.Buffer
			args := fmt.Sprintf("-mode prefill -model %s -tokens %d", model, tokens)
			if err := run(strings.Fields(args), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			sum := 0
			for _, line := range lines[1:] {
				var e, load int
				if _, err := fmt.Sscanf(line, "%d,%d", &e, &load); err != nil {
					t.Fatalf("`tracegen %s`: bad line %q: %v", args, line, err)
				}
				sum += load
			}
			if sum != tokens*k {
				t.Fatalf("`tracegen %s`: loads sum to %d, want %d", args, sum, tokens*k)
			}
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
