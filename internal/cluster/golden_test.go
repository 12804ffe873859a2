package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybrimoe/internal/engine"
)

// TestGoldenFleetChurnStream is the fleet entry in the golden-scenario
// library: a 3-replica round-robin fleet (lease-blind, so the silent
// window keeps feeding the stalled replica and detection reclaims a
// queue — the Rerouted path lands in the golden) under a bursty
// dispatch load with one injected stall (replica 1, detected by lease
// expiry, queue re-routed) and one scale-up (a cold replica joining
// mid-run), its
// full cluster.Event stream — lifecycle records included — serialised
// to JSONL and diffed byte-for-byte against the committed golden.
// Any drift in dispatch order, lifecycle timing, detection jitter or
// the event schema shows up as a first-divergence diff. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/cluster -run TestGoldenFleetChurnStream
// and review the diff like any other code change.
func TestGoldenFleetChurnStream(t *testing.T) {
	const seed = 800
	c, err := New(
		WithReplicas(3),
		WithRouter("round-robin"),
		WithSeed(seed),
		WithBuilder(buildReplica(t, seed)),
		WithMaxConcurrent(2),
		WithFailure(1, 0.2, FailStall),
		WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}))
	if err != nil {
		t.Fatal(err)
	}
	const offered = 20
	c.Submit(burstRequests(seed, offered, 12)...)
	var events []Event
	c.Run(func(ev Event) { events = append(events, ev) })
	if len(events) == 0 {
		t.Fatal("scenario produced no events")
	}
	lifecycle := 0
	for _, ev := range events {
		if ev.Kind != EventStep {
			lifecycle++
		}
	}
	if lifecycle == 0 {
		t.Fatal("churn scenario emitted no lifecycle events; the golden would pin nothing new")
	}
	// Conservation: every offered request completes, is shed, or dies
	// in flight with its replica — the churn never strands one.
	var tally engine.Tally
	for _, ev := range events {
		if ev.Kind == EventStep {
			tally.Add(ev.StepEvent)
		}
	}
	lost := c.Metrics().Lost
	if got := tally.Completed + tally.Shed + lost; got != offered {
		t.Fatalf("completed %d + shed %d + lost %d = %d, want the %d offered",
			tally.Completed, tally.Shed, lost, got, offered)
	}

	var buf bytes.Buffer
	if err := engine.WriteEventLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_fleet-churn.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events, %d lifecycle)", path, len(events), lifecycle)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if diff := diffJSONL(want, buf.Bytes()); diff != "" {
		t.Fatalf("event stream drifted from %s:\n%s", path, diff)
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
