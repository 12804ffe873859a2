package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

func TestPoolSpecRoles(t *testing.T) {
	spec := PoolSpec{Prefill: 1, Decode: 2}
	wantRoles := []PoolRole{RolePrefill, RoleDecode, RoleDecode, RoleMixed}
	for i, want := range wantRoles {
		if got := spec.Role(i); got != want {
			t.Errorf("Role(%d) = %v, want %v", i, got, want)
		}
	}
	if !spec.Pooled() {
		t.Error("1:2 spec reports unpooled")
	}
	if got := spec.String(); got != "1:2" {
		t.Errorf("String() = %q, want \"1:2\"", got)
	}
	var zero PoolSpec
	if zero.Pooled() {
		t.Error("zero spec reports pooled")
	}
	if got := zero.Role(0); got != RoleMixed {
		t.Errorf("zero spec Role(0) = %v, want mixed", got)
	}
	if got := zero.String(); got != "mixed" {
		t.Errorf("zero spec String() = %q, want \"mixed\"", got)
	}
}

func TestParsePools(t *testing.T) {
	good := map[string]PoolSpec{
		"":      {},
		"  ":    {},
		"1:2":   {Prefill: 1, Decode: 2},
		"2:1":   {Prefill: 2, Decode: 1},
		" 3:5 ": {Prefill: 3, Decode: 5},
	}
	for in, want := range good {
		got, err := ParsePools(in)
		if err != nil {
			t.Errorf("ParsePools(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParsePools(%q) = %+v, want %+v", in, got, want)
		}
	}
	bad := []string{"1", "1:2:3", "x:2", "1:y", "-1:2", "1:-2", "0:0", "0:2", "1:0"}
	for _, in := range bad {
		if _, err := ParsePools(in); err == nil {
			t.Errorf("ParsePools(%q) succeeded, want error", in)
		}
	}
}

// TestClusterRejectsBadPools covers the pooling arm of constructor
// validation: lopsided or oversized specs, and a pooled fleet whose
// platform models no replica-to-replica interconnect.
func TestClusterRejectsBadPools(t *testing.T) {
	build := buildReplica(t, 810)
	// A platform identical to the default but with no Interconnect —
	// disaggregation has no link to price migrations over.
	linkless := func(i int) (*engine.Engine, error) {
		p := hw.A6000Platform()
		p.Interconnect = hw.LinkModel{}
		return engine.New(moe.DeepSeek(), p, engine.HybriMoEFramework(),
			engine.WithCacheRatio(0.25), engine.WithSeed(ReplicaSeed(810, i)))
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative prefill pool", []Option{
			WithReplicas(3), WithBuilder(build), WithPools(PoolSpec{Prefill: -1, Decode: 2})}},
		{"prefill without decode", []Option{
			WithReplicas(3), WithBuilder(build), WithPools(PoolSpec{Prefill: 3})}},
		{"decode without prefill", []Option{
			WithReplicas(3), WithBuilder(build), WithPools(PoolSpec{Decode: 3})}},
		{"pools exceed fleet", []Option{
			WithReplicas(2), WithBuilder(build), WithPools(PoolSpec{Prefill: 1, Decode: 2})}},
		{"no interconnect", []Option{
			WithReplicas(3), WithBuilder(linkless), WithPools(PoolSpec{Prefill: 1, Decode: 2})}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
	// The zero spec is explicitly a no-op, not an error.
	if _, err := New(WithReplicas(2), WithBuilder(build), WithPools(PoolSpec{})); err != nil {
		t.Errorf("zero pool spec errored: %v", err)
	}
}

// TestClusterDisaggLifecycle drives a 1:2 disaggregated fleet end to end
// and checks the stage-split conservation law: every prompt-bearing
// request prefills exactly once on the prefill replica (its prefill
// event marked Migrated, not Done), crosses the interconnect as exactly
// one Handoff, and completes on a decode replica. The migrated working
// set must land warm — the acceptance pin that the decode replica's
// cache actually admitted the checkpoint's experts.
func TestClusterDisaggLifecycle(t *testing.T) {
	const seed, offered = 820, 12
	c, err := New(
		WithReplicas(3),
		WithRouter("affinity"),
		WithSeed(seed),
		WithBuilder(buildReplica(t, seed)),
		WithMaxConcurrent(2),
		WithPools(PoolSpec{Prefill: 1, Decode: 2}),
		WithRouteLog(4*offered))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Pools(); got != (PoolSpec{Prefill: 1, Decode: 2}) {
		t.Fatalf("Pools() = %+v", got)
	}
	for i, want := range []PoolRole{RolePrefill, RoleDecode, RoleDecode} {
		if got := c.Role(i); got != want {
			t.Fatalf("Role(%d) = %v, want %v", i, got, want)
		}
	}
	c.Submit(burstRequests(seed, offered, 10)...)

	prefills := map[int]int{}
	handoffs := map[int]int{}
	done := map[int]int{}
	c.Run(func(ev Event) {
		switch {
		case ev.Kind == EventHandoff:
			if ev.Replica == 0 {
				t.Fatalf("handoff landed on the prefill replica: %+v", ev)
			}
			if ev.Latency <= 0 || ev.End <= ev.Start {
				t.Fatalf("handoff with no transfer window: %+v", ev)
			}
			handoffs[ev.Request]++
		case ev.Phase == engine.PhasePrefill:
			if ev.Replica != 0 {
				t.Fatalf("prefill ran on decode replica %d: %+v", ev.Replica, ev)
			}
			if !ev.Migrated {
				t.Fatalf("prefill-pool event not marked Migrated: %+v", ev)
			}
			if ev.Done {
				t.Fatalf("migrated prefill marked Done: %+v", ev)
			}
			prefills[ev.Request]++
		case ev.Phase == engine.PhaseDecode:
			if ev.Replica == 0 {
				t.Fatalf("decode ran on the prefill replica: %+v", ev)
			}
			if ev.Done {
				done[ev.Request]++
			}
		}
	})
	if len(prefills) != offered || len(handoffs) != offered || len(done) != offered {
		t.Fatalf("conservation broke: %d prefilled, %d handed off, %d done of %d offered",
			len(prefills), len(handoffs), len(done), offered)
	}
	for id, n := range handoffs {
		if n != 1 || prefills[id] != 1 || done[id] != 1 {
			t.Fatalf("request %d: %d prefills, %d handoffs, %d dones", id, prefills[id], n, done[id])
		}
	}
	m := c.Metrics()
	if m.Handoffs != offered {
		t.Fatalf("Metrics().Handoffs = %d, want %d", m.Handoffs, offered)
	}
	warm, total := m.WarmExperts, m.MigratedExperts
	if total <= 0 {
		t.Fatal("handoffs carried no expert working set")
	}
	if warm <= 0 {
		t.Fatalf("no migrated expert landed warm (%d carried)", total)
	}
	if warm > total {
		t.Fatalf("warm %d exceeds carried %d", warm, total)
	}
	handoffRecs := 0
	for _, rec := range c.RouteLog() {
		if rec.Handoff {
			if rec.Replica == 0 {
				t.Fatalf("handoff route record on prefill replica: %+v", rec)
			}
			handoffRecs++
		} else if rec.Replica != 0 {
			t.Fatalf("fresh arrival routed to decode replica: %+v", rec)
		}
	}
	if handoffRecs != offered {
		t.Fatalf("route log holds %d handoff records, want %d", handoffRecs, offered)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d pending after drain", c.Pending())
	}
}

// TestClusterDisaggKillStripsCheckpoints kills a decode replica mid-run
// and checks the re-prefill contract: requests reclaimed with a
// checkpoint lose it (their KV state died with the box) and re-enter
// the dispatch queue as fresh prompt-bearing arrivals, so the fleet
// still completes every surviving request exactly once.
func TestClusterDisaggKillStripsCheckpoints(t *testing.T) {
	const seed, offered = 830, 16
	c, err := New(
		WithReplicas(3),
		WithRouter("round-robin"),
		WithSeed(seed),
		WithBuilder(buildReplica(t, seed)),
		WithPools(PoolSpec{Prefill: 1, Decode: 2}),
		WithFailure(1, 0.15, FailDeath))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(seed, offered, 14)...)
	done := map[int]int{}
	rerouted := 0
	c.Run(func(ev Event) {
		if ev.Kind == EventRerouted {
			rerouted++
		}
		if ev.Kind == EventStep && ev.Done && ev.Phase == engine.PhaseDecode {
			done[ev.Request]++
		}
	})
	for id, n := range done {
		if n != 1 {
			t.Fatalf("request %d emitted %d Done events", id, n)
		}
	}
	if lost := c.Metrics().Lost; len(done)+lost != offered {
		t.Fatalf("done %d + lost %d ≠ offered %d (rerouted %d)", len(done), lost, offered, rerouted)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d pending after drain", c.Pending())
	}
}

// TestGoldenDisaggHandoffStream pins the disaggregated event schema
// byte-for-byte: a 1:2 affinity fleet's full stream — Migrated prefill
// events on the prefill replica, first-class Handoff records spanning
// each interconnect transfer, adopted decodes on the decode pool —
// against the committed golden. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/cluster -run TestGoldenDisaggHandoffStream
func TestGoldenDisaggHandoffStream(t *testing.T) {
	const seed = 840
	c, err := New(
		WithReplicas(3),
		WithRouter("affinity"),
		WithSeed(seed),
		WithBuilder(buildReplica(t, seed)),
		WithMaxConcurrent(2),
		WithPools(PoolSpec{Prefill: 1, Decode: 2}))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(seed, 10, 12)...)
	var events []Event
	c.Run(func(ev Event) { events = append(events, ev) })
	migrated, handoffs := 0, 0
	for _, ev := range events {
		if ev.Migrated {
			migrated++
		}
		if ev.Kind == EventHandoff {
			handoffs++
		}
	}
	if migrated == 0 || handoffs == 0 {
		t.Fatalf("scenario pinned %d Migrated and %d Handoff events; the golden needs both", migrated, handoffs)
	}

	var buf bytes.Buffer
	if err := engine.WriteEventLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_disagg-handoff.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events, %d handoffs)", path, len(events), handoffs)
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

// TestPooledAdmissionCountsEachFirstTokenOnce runs a disaggregated fleet
// with admission at both levels. The fleet door's Tally must count one
// TTFT per prefill (on the prefill pool) and none for the adopted
// decodes that continue those requests on the decode pool. Its policy
// admits everything and checks the sample it is handed at each
// decision: dispatch runs only on a drained queue, so the door has
// observed exactly the events delivered so far. One arrival submitted
// after the drain makes the door read the whole run's tally. The fleet
// tally has anchored each request at its prefill before the adopted
// decode arrives, so it cannot tell whether an adopted decode would
// count as a first token; each decode-pool replica's session door sees
// the adopted decodes alone, so its tally must never hold a TTFT
// sample.
func TestPooledAdmissionCountsEachFirstTokenOnce(t *testing.T) {
	const seed = 840
	spec := PoolSpec{Prefill: 1, Decode: 2}
	prefills, adopted, read := 0, 0, -1
	record := decideFunc(func(_ workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision {
		if snap.TTFT.N != prefills {
			t.Fatalf("fleet door reads %d TTFT observations after %d prefills", snap.TTFT.N, prefills)
		}
		read = snap.TTFT.N
		return engine.AdmissionAdmit
	})
	// decided[i] counts decode replica i's session decisions made after
	// its door had folded a decode step.
	decided := map[int]int{}
	build := func(i int) (*engine.Engine, error) {
		if spec.Role(i) != RoleDecode {
			return buildReplica(t, seed)(i)
		}
		session := decideFunc(func(_ workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision {
			if snap.TTFT.N != 0 {
				t.Fatalf("decode replica %d session door reads %d TTFT observations", i, snap.TTFT.N)
			}
			if snap.TBT.N > 0 {
				decided[i]++
			}
			return engine.AdmissionAdmit
		})
		return buildReplica(t, seed, engine.WithAdmission(session))(i)
	}
	c, err := New(
		WithReplicas(3),
		WithRouter("affinity"),
		WithSeed(seed),
		WithBuilder(build),
		WithMaxConcurrent(2),
		WithPools(spec),
		WithAdmission(record))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(seed, 10, 12)...)
	count := func(ev Event) {
		if ev.Kind != EventStep {
			return
		}
		if ev.Phase == engine.PhasePrefill {
			prefills++
		}
		if ev.Adopted {
			adopted++
		}
	}
	c.Run(count)
	if handoffs := c.Metrics().Handoffs; handoffs == 0 || adopted == 0 {
		t.Fatalf("%d handoffs, %d adopted decodes; the scenario must migrate work", handoffs, adopted)
	}
	ran := prefills
	c.Submit(workload.Request{ID: 100, PromptTokens: 8, DecodeTokens: 1, Arrival: 60})
	c.Run(count)
	if read != ran {
		t.Fatalf("fleet tally holds %d TTFT observations for %d prefills", read, ran)
	}
	for i := spec.Prefill; i < spec.Prefill+spec.Decode; i++ {
		if decided[i] == 0 {
			t.Errorf("decode replica %d session door decided nothing after a decode step", i)
		}
	}
	t.Logf("session decisions after a decode step per decode replica: %v", decided)
}
