package exp

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/report"
	"hybrimoe/internal/stats"
)

// The legacy* functions below are the hand-written event loops the
// study drivers ran before engine.Tally folded every stream: the
// reference TestTallyMatchesLegacyFolds holds the Tally to.

// latencies is the batch summary the legacy loops reported.
func latencies(xs []float64) report.LatencyStats {
	if len(xs) == 0 {
		return report.LatencyStats{}
	}
	var s stats.Sample
	s.AddN(xs)
	return report.LatencyStats{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
	}
}

type legacyFleetRun struct {
	completed, shed int
	clockEnd        float64
	ttftQ           report.LatencyStats
}

// legacyFleet is driveFleet's loop.
func legacyFleet(evs []cluster.Event) legacyFleetRun {
	var r legacyFleetRun
	var ttftQ []float64
	for _, ev := range evs {
		if ev.Kind != cluster.EventStep {
			continue
		}
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			ttftQ = append(ttftQ, ev.Queued+ev.Latency)
		case engine.PhaseShed:
			r.shed++
			continue
		case engine.PhaseDeferred:
			continue
		}
		if ev.Done {
			r.completed++
		}
	}
	r.ttftQ = latencies(ttftQ)
	return r
}

type legacyOpenLoopRun struct {
	completed, shed       int
	clockEnd              float64
	ttftQ, forward, queue report.LatencyStats
}

// legacyOpenLoop is driveOpenLoop's loop.
func legacyOpenLoop(evs []engine.StepEvent) legacyOpenLoopRun {
	var r legacyOpenLoopRun
	var ttftQ, forward, queue []float64
	for _, ev := range evs {
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			forward = append(forward, ev.Latency)
			ttftQ = append(ttftQ, ev.Queued+ev.Latency)
			queue = append(queue, ev.Queued)
		case engine.PhaseShed:
			r.shed++
			continue
		case engine.PhaseDeferred:
			continue
		}
		if ev.Done {
			r.completed++
		}
	}
	r.ttftQ, r.forward, r.queue = latencies(ttftQ), latencies(forward), latencies(queue)
	return r
}

type legacyPolicyRun struct {
	completed, onTime, violated, shed int
	clockEnd                          float64
	ttft, tbt                         report.LatencyStats
	completion                        map[int]float64
	byClass                           map[string]*engine.ClassTally
}

// legacyPolicy is drivePolicy's loop (its TTFT is the forward latency).
func legacyPolicy(evs []engine.StepEvent) legacyPolicyRun {
	r := legacyPolicyRun{completion: map[int]float64{}, byClass: map[string]*engine.ClassTally{}}
	class := func(c string) *engine.ClassTally {
		if r.byClass[c] == nil {
			r.byClass[c] = &engine.ClassTally{}
		}
		return r.byClass[c]
	}
	var ttfts, tbts []float64
	for _, ev := range evs {
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			ttfts = append(ttfts, ev.Latency)
		case engine.PhaseDecode:
			tbts = append(tbts, ev.Latency)
		case engine.PhaseShed:
			r.shed++
			class(ev.Class).Shed++
			continue
		default:
			continue
		}
		if ev.Done {
			r.completed++
			class(ev.Class).Completed++
			r.completion[ev.Request] = ev.End
			if ev.Deadline > 0 {
				if ev.End <= ev.Deadline {
					r.onTime++
				} else {
					r.violated++
					class(ev.Class).Violated++
				}
			}
		}
	}
	r.ttft, r.tbt = latencies(ttfts), latencies(tbts)
	return r
}

type legacyDisaggRun struct {
	completed   int
	clockEnd    float64
	ttftQ, gapQ report.LatencyStats
}

// legacyDisagg is driveDisagg's loop.
func legacyDisagg(evs []cluster.Event) legacyDisaggRun {
	var r legacyDisaggRun
	var ttftQ, gaps []float64
	prefillEnd, lastDecode := map[int]float64{}, map[int]float64{}
	for _, ev := range evs {
		if ev.Kind != cluster.EventStep {
			continue
		}
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			ttftQ = append(ttftQ, ev.Queued+ev.Latency)
			prefillEnd[ev.Request] = ev.End
		case engine.PhaseDecode:
			prev, ok := lastDecode[ev.Request]
			if !ok {
				prev = prefillEnd[ev.Request]
			}
			gaps = append(gaps, ev.End-prev)
			lastDecode[ev.Request] = ev.End
		}
		if ev.Done {
			r.completed++
		}
	}
	r.ttftQ, r.gapQ = latencies(ttftQ), latencies(gaps)
	return r
}

// readGolden decodes a committed JSONL event stream (engine or cluster
// schema; engine records decode as fleet step events).
func readGolden(t *testing.T, path string) []cluster.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var evs []cluster.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev cluster.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatalf("%s holds no events", path)
	}
	return evs
}

// TestTallyMatchesLegacyFolds feeds the four committed golden streams to
// engine.Tally and to the loops it replaced, and requires every outcome
// the studies read to agree exactly. Each stream also runs with a
// deadline stamped on every request, so the on-time and violation
// counts are exercised.
func TestTallyMatchesLegacyFolds(t *testing.T) {
	goldens := map[string]string{
		"bursty-openloop": filepath.Join("..", "engine", "testdata", "golden_bursty-openloop.jsonl"),
		"hetero-mix":      filepath.Join("..", "engine", "testdata", "golden_hetero-mix.jsonl"),
		"fleet-churn":     filepath.Join("..", "cluster", "testdata", "golden_fleet-churn.jsonl"),
		"disagg-handoff":  filepath.Join("..", "cluster", "testdata", "golden_disagg-handoff.jsonl"),
	}
	for name, path := range goldens {
		for _, deadlines := range []bool{false, true} {
			evs := readGolden(t, path)
			if deadlines {
				for i := range evs {
					// Tight for some requests, slack for others.
					evs[i].Deadline = 0.3 + 0.25*float64(evs[i].Request%4)
				}
			}
			var steps []engine.StepEvent
			var tally engine.Tally
			for _, ev := range evs {
				if ev.Kind == cluster.EventStep {
					steps = append(steps, ev.StepEvent)
					tally.Add(ev.StepEvent)
				}
			}
			if tally.Completed == 0 {
				t.Fatalf("%s: no completions folded", name)
			}

			fleet := legacyFleet(evs)
			if fleet.completed != tally.Completed || fleet.shed != tally.Shed ||
				fleet.clockEnd != tally.Makespan || fleet.ttftQ != tally.TTFT.Stats() {
				t.Errorf("%s (deadlines %v): fleet loop %+v, tally completed %d shed %d makespan %v TTFT %+v",
					name, deadlines, fleet, tally.Completed, tally.Shed, tally.Makespan, tally.TTFT.Stats())
			}
			open := legacyOpenLoop(steps)
			if open.completed != tally.Completed || open.shed != tally.Shed || open.clockEnd != tally.Makespan ||
				open.ttftQ != tally.TTFT.Stats() || open.forward != tally.Prefill.Stats() || open.queue != tally.Queue.Stats() {
				t.Errorf("%s (deadlines %v): open-loop loop %+v disagrees with the tally", name, deadlines, open)
			}
			policy := legacyPolicy(steps)
			if policy.completed != tally.Completed || policy.violated != tally.Violated ||
				policy.shed != tally.Shed || policy.clockEnd != tally.Makespan ||
				policy.ttft != tally.Prefill.Stats() || policy.tbt != tally.TBT.Stats() ||
				!reflect.DeepEqual(policy.completion, tally.CompletedAt) ||
				!reflect.DeepEqual(policy.byClass, tally.ByClass) {
				t.Errorf("%s (deadlines %v): policy loop %+v disagrees with the tally", name, deadlines, policy)
			}
			disagg := legacyDisagg(evs)
			if disagg.completed != tally.Completed || disagg.clockEnd != tally.Makespan ||
				disagg.ttftQ != tally.TTFT.Stats() || disagg.gapQ != tally.Gap.Stats() {
				t.Errorf("%s (deadlines %v): disagg loop %+v, tally gaps %+v", name, deadlines, disagg, tally.Gap.Stats())
			}

			// Goodput: the fleet and open-loop studies divided completions
			// by makespan, the policy study on-time completions; with no
			// deadline the two coincide, with one on every request the
			// policy definition is the tally's.
			want := float64(fleet.completed) / fleet.clockEnd
			if deadlines {
				want = float64(policy.onTime) / policy.clockEnd
			}
			if got := tally.Goodput(); got != want {
				t.Errorf("%s (deadlines %v): goodput %v, want %v", name, deadlines, got, want)
			}
		}
	}
}
