package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// goldenScenario is one committed event-stream pin: a deterministic
// serving scenario whose full StepEvent stream is serialised to JSONL
// and diffed byte-for-byte against testdata. Any drift in the event
// schema, the simulation arithmetic, or the scheduling order shows up
// as a golden mismatch with the first diverging line identified —
// the trex-emu SimRecordCompare idiom. Regenerate the files with
// UPDATE_GOLDEN=1 go test ./internal/engine -run TestGoldenEventStream
// and review the diff like any other code change.
type goldenScenario struct {
	name string
	// session builds the scenario's session with its requests submitted.
	session func(t *testing.T) *Session
}

// goldenScenarios is the table fleet scenarios land in next: each entry
// pins one canonical serving shape.
func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			// The canonical bursty open-loop single-replica scenario: a
			// Poisson burst at twice the measured drain rate through a
			// continuously-batched session, so the stream exercises clock
			// jumps, queue waits, merged iterations and interleaved
			// decodes in one run.
			name: "bursty-openloop",
			session: func(t *testing.T) *Session {
				e := newEngineOpts(t, 500, WithBatchPolicy("greedy", 64))
				s := e.NewSession(WithMaxConcurrent(3))
				stream := workload.NewStream(500, workload.AllDatasets()...).
					WithArrivals(workload.Poisson(4))
				reqs := stream.NextN(10)
				workload.CapDecode(reqs, 4)
				s.Submit(reqs...)
				return s
			},
		},
		{
			// The heterogeneous-mix scenario the disaggregation work
			// motivates: long-document prefill-heavy requests interleaved
			// with chat decode-heavy ones through one continuously-batched
			// session, pinning exactly the prefill-behind-decode
			// interference pattern pool splitting removes.
			name: "hetero-mix",
			session: func(t *testing.T) *Session {
				e := newEngineOpts(t, 510, WithBatchPolicy("greedy", 64))
				s := e.NewSession(WithMaxConcurrent(3))
				s.Submit(
					workload.Request{ID: 0, PromptTokens: 1200, DecodeTokens: 3, Arrival: 0.00, Class: "longdoc"},
					workload.Request{ID: 1, PromptTokens: 32, DecodeTokens: 12, Arrival: 0.01, Class: "chat"},
					workload.Request{ID: 2, PromptTokens: 24, DecodeTokens: 10, Arrival: 0.02, Class: "chat"},
					workload.Request{ID: 3, PromptTokens: 900, DecodeTokens: 3, Arrival: 0.05, Class: "longdoc"},
					workload.Request{ID: 4, PromptTokens: 48, DecodeTokens: 12, Arrival: 0.06, Class: "chat"},
					workload.Request{ID: 5, PromptTokens: 28, DecodeTokens: 10, Arrival: 0.30, Class: "chat"},
				)
				return s
			},
		},
		{
			// Two GPUs under the device-aware planner: residency, plans,
			// transfers and prefetch budgets spread over both devices.
			name: "dual-gpu-expert-parallel",
			session: func(t *testing.T) *Session {
				return dualGPUGolden(t, expertParallelFramework())
			},
		},
		{
			// The same platform under the single-GPU hybrimoe planner,
			// which the engine confines to GPU0.
			name: "dual-gpu-confined",
			session: func(t *testing.T) *Session {
				return dualGPUGolden(t, HybriMoEFramework())
			},
		},
	}
}

// dualGPUGolden submits ten Poisson(4) requests to a continuously-batched
// session on a 2-GPU DeepSeek engine.
func dualGPUGolden(t *testing.T, fw Framework) *Session {
	e, err := New(moe.DeepSeek(), hw.MultiA6000Platform(2), fw,
		WithCacheRatio(0.25), WithSeed(520), WithBatchPolicy("greedy", 64))
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession(WithMaxConcurrent(3))
	stream := workload.NewStream(520, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(4))
	reqs := stream.NextN(10)
	workload.CapDecode(reqs, 4)
	s.Submit(reqs...)
	return s
}

// TestGoldenEventStream re-runs each scenario and diffs its serialised
// event stream byte-for-byte against the committed golden JSONL.
func TestGoldenEventStream(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			events := collect(sc.session(t))
			if len(events) == 0 {
				t.Fatal("scenario produced no events")
			}
			var buf bytes.Buffer
			if err := WriteEventLog(&buf, events); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+sc.name+".jsonl")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events)", path, len(events))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if diff := diffJSONL(want, buf.Bytes()); diff != "" {
				t.Fatalf("event stream drifted from %s:\n%s", path, diff)
			}
		})
	}
}

// diffJSONL compares two JSONL byte streams and describes the first
// divergence line-by-line; "" means byte-identical.
func diffJSONL(want, got []byte) string {
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
	return fmt.Sprintf("streams differ in length only: golden %d lines, got %d",
		len(wantLines), len(gotLines))
}
