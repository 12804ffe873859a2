// Command hybrimoe runs the paper-reproduction experiments.
//
// Usage:
//
//	hybrimoe list                 # show available experiments
//	hybrimoe run <id> [flags]     # run one experiment (fig3a..fig9, table3, ...)
//	hybrimoe all [flags]          # run every experiment
//	hybrimoe demo [flags]         # one decode run with a Gantt timeline (-cache 0 = no expert cache)
//	hybrimoe serve [flags]        # stream a mixed request workload through one replica or a fleet
//
// Flags:
//
//	-seed N        trace seed (default 2025)
//	-steps N       decode iterations per configuration (default 50)
//	-quick         reduced iteration counts for a fast smoke run
//
// Grid studies run their cells, and serve steps its replicas, on
// GOMAXPROCS goroutines; GOMAXPROCS=1 gives a serial run. Output is
// identical at every count.
//
// Serve flags (see `hybrimoe serve -h` for the full set):
//
//	-gpus N             A6000 GPUs in the platform (per-device caches and links)
//	-sched NAME         intra-layer scheduler (expert-parallel spreads over N GPUs)
//	-reqsched NAME      request scheduler: fcfs, round-robin, sjf, edf
//	-batch NAME         batch former: none, greedy, phase-aware
//	-batch-budget N     token budget per merged iteration
//	-slo-ttft-p95 SECS  p95 TTFT target; >0 enables SLO admission control
//	-slo-tbt-p95 SECS   p95 TBT target; >0 enables SLO admission control
//	-deadline SECS      per-token deadline budget; >0 stamps arrival-relative deadlines
//	-arrivals NAME      open-loop arrival process: none, poisson, uniform, bursty
//	-rate R             mean arrival rate in req/s (with -arrivals)
//	-trace-in FILE      replay a JSONL request trace instead of sampling a stream
//	-trace-out FILE     record the offered request sequence as a JSONL trace
//	-replicas N         independent replica stacks served as a fleet (>1 enables routing)
//	-router NAME        fleet request router: round-robin, least-loaded, power-of-two, affinity
//	-pools P:D          disaggregated pool split (prefill:decode replicas, handoffs priced)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybrimoe:", err)
		os.Exit(1)
	}
}

// run executes one subcommand, writing its report to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 2025, "trace seed")
	steps := fs.Int("steps", 50, "decode iterations per configuration")
	quick := fs.Bool("quick", false, "reduced iteration counts")

	switch cmd {
	case "list":
		for _, e := range exp.Registry() {
			fmt.Fprintf(w, "%-14s %s\n", e.ID, e.Desc)
		}
		return nil

	case "run":
		if len(rest) == 0 {
			return fmt.Errorf("run needs an experiment id (try 'hybrimoe list')")
		}
		id := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		e, err := exp.Lookup(id)
		if err != nil {
			return err
		}
		p, err := params(fs, *seed, *steps, *quick)
		if err != nil {
			return err
		}
		e.Run(p).Render(w)
		return nil

	case "all":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		p, err := params(fs, *seed, *steps, *quick)
		if err != nil {
			return err
		}
		exp.RunAll(w, p)
		return nil

	case "demo":
		model := fs.String("model", "DeepSeek", "model name (DeepSeek, Mixtral, Qwen2)")
		ratio := fs.Float64("cache", 0.25, "GPU expert cache ratio")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		cfg, err := moe.ByName(*model)
		if err != nil {
			return err
		}
		if err := checkSteps(*steps); err != nil {
			return err
		}
		e, err := engine.New(cfg, hw.A6000Platform(), engine.HybriMoEFramework(),
			engine.WithCacheRatio(*ratio), engine.WithSeed(*seed), engine.WithTraceRecording())
		if err != nil {
			return err
		}
		res := e.RunDecode(*steps)
		fmt.Fprintf(w, "%s decode, %d steps, %.0f%% cache: mean TBT %.4fs, hit rate %.1f%%\n",
			cfg.Name, *steps, *ratio*100, res.Mean(), 100*res.Stats.CacheHitRate)
		fmt.Fprintf(w, "ops: %d CPU, %d GPU, %d demand transfers, %d prefetches\n",
			res.Stats.CPUOps, res.Stats.GPUOps, res.Stats.DemandTransfers, res.Stats.PrefetchTransfers)
		fmt.Fprintln(w, "\nExecution timeline (whole run):")
		fmt.Fprint(w, e.Gantt(100))
		return nil

	case "serve":
		model := fs.String("model", "DeepSeek", "model name (DeepSeek, Mixtral, Qwen2)")
		ratio := fs.Float64("cache", 0.25, "GPU expert cache ratio (per GPU)")
		gpus := fs.Int("gpus", 1, "A6000 GPUs in the platform (each with its own PCIe link)")
		schedName := fs.String("sched", "hybrimoe", "intra-layer scheduler: "+strings.Join(sched.Names(), ", "))
		requests := fs.Int("requests", 8, "requests to draw from the workload stream")
		concurrent := fs.Int("concurrent", 2, "requests served at once (phases interleave)")
		decodeCap := fs.Int("decode-cap", 16, "cap on decode tokens per request, 0 = uncapped")
		reqSched := fs.String("reqsched", "round-robin", "request scheduler: "+strings.Join(reqsched.Names(), ", "))
		batch := fs.String("batch", "none", "batch former merging concurrent iterations: "+strings.Join(reqsched.BatchNames(), ", "))
		batchBudget := fs.Int("batch-budget", exp.BatchBudget, "token budget per merged iteration")
		sloTTFT := fs.Float64("slo-ttft-p95", 0, "p95 TTFT target in seconds; >0 enables SLO admission control")
		sloTBT := fs.Float64("slo-tbt-p95", 0, "p95 TBT target in seconds; >0 enables SLO admission control")
		deadline := fs.Float64("deadline", 0, "per-token completion-deadline budget in seconds; >0 stamps arrival-relative deadlines")
		arrivals := fs.String("arrivals", "none", "open-loop arrival process: none, poisson, uniform, bursty")
		rate := fs.Float64("rate", 4, "mean arrival rate in req/s (with -arrivals)")
		traceIn := fs.String("trace-in", "", "replay a JSONL request trace instead of sampling a stream")
		traceOut := fs.String("trace-out", "", "record the offered request sequence (deadlines stamped, before admission) as a JSONL trace")
		replicas := fs.Int("replicas", 1, "independent replica stacks served as a fleet (>1 routes through -router)")
		router := fs.String("router", "affinity", "fleet request router: "+strings.Join(cluster.RouterNames(), ", "))
		fail := fs.String("fail", "", "injected replica failures, e.g. 1@0.3:stall or 0@0.5:death (comma-separated)")
		scalePlan := fs.String("scale-plan", "", "scheduled fleet resizes, e.g. +1@0.5,-1@1.2 (comma-separated)")
		pools := fs.String("pools", "", "disaggregated pool split P:D (prefill:decode replicas; prefills hand off over the interconnect)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		cfg, err := moe.ByName(*model)
		if err != nil {
			return err
		}
		sc := serveConfig{
			cfg: cfg, ratio: *ratio, seed: *seed, gpus: *gpus, sched: *schedName,
			requests: *requests, concurrent: *concurrent, decodeCap: *decodeCap,
			reqSched: *reqSched, batch: *batch, batchBudget: *batchBudget,
			sloTTFT: *sloTTFT, sloTBT: *sloTBT, deadline: *deadline,
			arrivals: *arrivals, rate: *rate, traceIn: *traceIn, traceOut: *traceOut,
			replicas: *replicas, router: *router, fail: *fail, scalePlan: *scalePlan,
			pools: *pools,
		}
		return serve(w, sc)

	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// serveConfig bundles the serve subcommand's knobs.
type serveConfig struct {
	cfg                  *moe.Config
	ratio                float64
	seed                 uint64
	gpus                 int
	sched                string
	requests, concurrent int
	decodeCap            int
	reqSched             string
	batch                string
	batchBudget          int
	sloTTFT, sloTBT      float64
	deadline             float64
	arrivals             string
	rate                 float64
	traceIn, traceOut    string
	replicas             int
	router               string
	fail, scalePlan      string
	pools                string
}

// serveRequests assembles the request sequence for one serve run:
// replayed from a JSONL trace when -trace-in is set (arrival stamps and
// deadlines come from the recording), otherwise sampled from the mixed
// corpus stream with optional open-loop arrival stamping.
func serveRequests(sc serveConfig) ([]workload.Request, error) {
	if sc.traceIn != "" {
		f, err := os.Open(sc.traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		reqs, err := workload.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("trace %s holds no requests", sc.traceIn)
		}
		return reqs, nil
	}
	stream := workload.NewStream(sc.seed, workload.AllDatasets()...)
	if sc.arrivals != "none" {
		proc, err := workload.NewArrivals(sc.arrivals, sc.rate)
		if err != nil {
			return nil, err
		}
		stream.WithArrivals(proc)
	}
	reqs := stream.NextN(sc.requests)
	workload.CapDecode(reqs, sc.decodeCap)
	return reqs, nil
}

// serve streams a request workload — sampled from the mixed corpora,
// optionally under an open-loop arrival process, or replayed from a
// JSONL trace — through one cluster of engine replicas, each built from
// the same serve knobs (model, GPUs, schedulers, batching) with its own
// derived seed, and reports queue-inclusive TTFT and TBT percentiles
// plus shed/deferral/violation accounting from the events. A plain run
// is one replica whose session keeps SLO admission control, reported
// without replica tags. More replicas, failures, a scale plan or pools
// make a fleet: the named router picks a replica per arrival, and SLO
// targets move admission to the fleet door, where requests are shed
// against fleet-aggregate quantiles before any replica queues them.
func serve(w io.Writer, sc serveConfig) error {
	if sc.requests < 1 {
		return fmt.Errorf("-requests %d must be at least 1", sc.requests)
	}
	if sc.concurrent < 1 {
		return fmt.Errorf("-concurrent %d must be at least 1", sc.concurrent)
	}
	if sc.decodeCap < 0 {
		return fmt.Errorf("-decode-cap %d must be non-negative", sc.decodeCap)
	}
	// A negative or NaN SLO target would silently turn admission off,
	// and NaN slips past a plain < 0 check.
	for _, f := range []struct {
		name string
		secs float64
	}{{"slo-ttft-p95", sc.sloTTFT}, {"slo-tbt-p95", sc.sloTBT}, {"deadline", sc.deadline}} {
		if f.secs < 0 || math.IsNaN(f.secs) || math.IsInf(f.secs, 0) {
			return fmt.Errorf("-%s %v must be finite and non-negative", f.name, f.secs)
		}
	}
	if sc.gpus < 1 {
		return fmt.Errorf("-gpus %d must be at least 1", sc.gpus)
	}
	if sc.replicas < 1 {
		return fmt.Errorf("-replicas %d must be at least 1", sc.replicas)
	}
	reqs, err := serveRequests(sc)
	if err != nil {
		return err
	}
	if sc.deadline > 0 {
		workload.AssignDeadlines(reqs, 0, sc.deadline)
	}
	if sc.traceOut != "" {
		f, err := os.Create(sc.traceOut)
		if err != nil {
			return err
		}
		if err := workload.WriteTrace(f, reqs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	failures, err := cluster.ParseFailures(sc.fail)
	if err != nil {
		return err
	}
	scale, err := cluster.ParseScalePlan(sc.scalePlan)
	if err != nil {
		return err
	}
	poolSpec, err := cluster.ParsePools(sc.pools)
	if err != nil {
		return err
	}
	// Lifecycle and disaggregation knobs only exist at fleet scope; a
	// 1-replica fleet with churn is still a fleet.
	fleet := sc.replicas > 1 || sc.fail != "" || sc.scalePlan != "" || sc.pools != ""
	replicas := sc.replicas
	if n := poolSpec.Prefill + poolSpec.Decode; n > replicas {
		// -pools P:D implies the fleet size; -replicas may still grow it
		// (the surplus serves mixed).
		replicas = n
	}
	var slo engine.AdmissionPolicy
	if sc.sloTTFT > 0 || sc.sloTBT > 0 {
		slo = engine.NewSLOAdmission(sc.sloTTFT, sc.sloTBT)
	}
	fw := engine.HybriMoEFramework()
	if sc.sched != "" {
		fw.Sched = sc.sched
	}
	build := func(i int) (*engine.Engine, error) {
		eopts := []engine.Option{
			engine.WithCacheRatio(sc.ratio),
			engine.WithSeed(cluster.ReplicaSeed(sc.seed, i)),
			engine.WithRequestScheduler(sc.reqSched),
			engine.WithBatchPolicy(sc.batch, sc.batchBudget),
		}
		if i >= replicas {
			// Scale-up replicas join with cold caches: elasticity pays
			// the re-warm cost instead of pretending warmth.
			eopts = append(eopts, engine.WithWarmupIters(0))
		}
		if slo != nil && !fleet {
			eopts = append(eopts, engine.WithAdmission(slo))
		}
		return engine.New(sc.cfg, hw.MultiA6000Platform(sc.gpus), fw, eopts...)
	}
	opts := []cluster.Option{
		cluster.WithReplicas(replicas),
		cluster.WithRouter(sc.router),
		cluster.WithBuilder(build),
		cluster.WithSeed(sc.seed),
		cluster.WithMaxConcurrent(sc.concurrent),
		cluster.WithWorkers(runtime.GOMAXPROCS(0)),
	}
	if poolSpec.Pooled() {
		opts = append(opts, cluster.WithPools(poolSpec))
	}
	if slo != nil && fleet {
		opts = append(opts, cluster.WithAdmission(slo))
	}
	for _, f := range failures {
		opts = append(opts, cluster.WithFailure(f.Replica, f.At, f.Kind))
	}
	if len(scale) > 0 {
		opts = append(opts, cluster.WithScalePlan(scale...))
	}
	c, err := cluster.New(opts...)
	if err != nil {
		return err
	}
	c.Submit(reqs...)

	if fleet {
		fmt.Fprintf(w, "serving %d requests across %d %s replicas (%s routing, %.0f%% cache, ≤%d concurrent each",
			len(reqs), replicas, sc.cfg.Name, c.RouterName(), sc.ratio*100, sc.concurrent)
		if poolSpec.Pooled() {
			fmt.Fprintf(w, ", %s pools", poolSpec)
		}
	} else {
		fmt.Fprintf(w, "serving %d requests on %s (%.0f%% cache, ≤%d concurrent, %s scheduling",
			len(reqs), sc.cfg.Name, sc.ratio*100, sc.concurrent, sc.reqSched)
	}
	if sc.gpus > 1 {
		fmt.Fprintf(w, ", %d GPUs via %s", sc.gpus, sc.sched)
	}
	if sc.traceIn != "" {
		fmt.Fprintf(w, ", replaying %s", sc.traceIn)
	} else if sc.arrivals != "none" {
		fmt.Fprintf(w, ", %s arrivals at %.3g req/s", sc.arrivals, sc.rate)
	}
	if sc.batch != "none" {
		fmt.Fprintf(w, ", %s batching ≤%d tokens", sc.batch, sc.batchBudget)
	}
	if slo != nil {
		scope := "SLO"
		if fleet {
			scope = "fleet SLO"
		}
		fmt.Fprintf(w, ", %s p95 TTFT %.3gs / TBT %.3gs", scope, sc.sloTTFT, sc.sloTBT)
	}
	if sc.fail != "" {
		fmt.Fprintf(w, ", failures %s", sc.fail)
	}
	if sc.scalePlan != "" {
		fmt.Fprintf(w, ", scale plan %s", sc.scalePlan)
	}
	fmt.Fprint(w, ")\n\n")

	var t engine.Tally
	c.Run(func(ev cluster.Event) {
		if ev.Kind == cluster.EventStep {
			t.Add(ev.StepEvent)
		}
		printEvent(w, ev, fleet)
	})

	if fleet {
		fmt.Fprintf(w, "\nsteps: %d   routed per replica: %v\n", c.Steps(), c.Routed())
		for i := 0; i < c.Replicas(); i++ {
			role := ""
			if c.Pools().Pooled() {
				role = " " + c.Role(i).String()
			}
			fmt.Fprintf(w, "  replica %d: %-8s%s clock %.3fs, cache hit rate %.1f%%\n",
				i, c.State(i), role, c.Engine(i).Clock(), 100*c.Engine(i).Caches().HitRate())
		}
		if c.Handoffs() > 0 {
			warm, total := c.MigratedExperts()
			fmt.Fprintf(w, "disaggregation: %d prefill→decode handoffs, %d/%d migrated experts landed warm\n",
				c.Handoffs(), warm, total)
		}
		if c.Rerouted() > 0 || c.Lost() > 0 {
			fmt.Fprintf(w, "churn: %d requests re-routed off dead replicas, %d in-flight lost\n",
				c.Rerouted(), c.Lost())
		}
	} else {
		fmt.Fprintf(w, "\nsteps: %d   cache hit rate: %.1f%%\n", c.Steps(), 100*c.Engine(0).Caches().HitRate())
		if sc.batch != "none" {
			batches, meanBatch := c.Session(0).Batches(), 0.0
			if batches > 0 {
				meanBatch = float64(t.ComputeEvents) / float64(batches)
			}
			fmt.Fprintf(w, "batching: %d iterations for %d request-steps (mean batch %.2f)\n",
				batches, t.ComputeEvents, meanBatch)
		}
	}
	if slo != nil || sc.deadline > 0 {
		// Admission runs at one layer, the fleet door or the plain run's
		// session; the other counts nothing.
		shed, deferred := c.Shed(), c.Deferred()
		for i := 0; i < c.Replicas(); i++ {
			shed += c.Session(i).Shed()
			deferred += c.Session(i).Deferred()
		}
		fmt.Fprintf(w, "admission: %d shed, %d deferral verdicts   deadline violations: %d\n",
			shed, deferred, t.Violated)
	}
	fmt.Fprintf(w, "TTFT  %s\n", t.TTFT.Stats())
	fmt.Fprintf(w, "TBT   %s\n", t.TBT.Stats())
	return nil
}

// printEvent writes ev's line of the serve report: prefills,
// completions, admission records and lifecycle records print, decode
// steps that complete nothing do not. A fleet report tags each line
// with the replica it happened on, or with blanks for the fleet's own
// records; a plain run's report carries no tags.
func printEvent(w io.Writer, ev cluster.Event, fleet bool) {
	line := func(format string, args ...any) {
		fmt.Fprintf(w, "  t=%7.3fs ", ev.End)
		switch {
		case !fleet:
		case ev.Replica == cluster.FleetReplica || ev.Kind == cluster.EventRerouted:
			fmt.Fprint(w, "   ")
		default:
			fmt.Fprintf(w, "r%d ", ev.Replica)
		}
		fmt.Fprintf(w, format+"\n", args...)
	}
	door := "by admission control"
	if ev.Replica == cluster.FleetReplica {
		door = "at the fleet door"
	}
	switch {
	case ev.Kind == cluster.EventReplicaWarming:
		line("JOINED cold, warming")
	case ev.Kind == cluster.EventReplicaDraining:
		line("DRAINING, no new dispatches")
	case ev.Kind == cluster.EventReplicaDead && ev.Tokens > 0:
		line("DEAD, %d in-flight requests lost", ev.Tokens)
	case ev.Kind == cluster.EventReplicaDead:
		line("DEAD")
	case ev.Kind == cluster.EventRerouted:
		line("req %2d RE-ROUTED off dead r%d (arrived %.3fs)", ev.Request, ev.Replica, ev.Arrival)
	case ev.Kind == cluster.EventHandoff:
		line("req %2d HANDOFF landed: %d experts (%d warm), xfer %.4fs",
			ev.Request, ev.Tokens, ev.Hits, ev.Latency)
	case ev.Phase == engine.PhaseShed:
		line("req %2d SHED %s", ev.Request, door)
	case ev.Phase == engine.PhaseDeferred:
		line("req %2d deferred %s", ev.Request, door)
	default:
		steps := ev.Index + 1
		if ev.Phase == engine.PhasePrefill {
			steps = 0
			queued := ""
			if ev.Queued > 0 {
				queued = fmt.Sprintf(" (queued %.4fs)", ev.Queued)
			}
			line("req %2d prefill %4d tokens  TTFT %.4fs%s", ev.Request, ev.Tokens, ev.Queued+ev.Latency, queued)
		}
		// Done can ride a decode event or, for decode-free requests,
		// the prefill itself.
		if ev.Done {
			late := ""
			if ev.Deadline > 0 && ev.End > ev.Deadline {
				late = fmt.Sprintf("  MISSED deadline %.3fs", ev.Deadline)
			}
			line("req %2d done after %d decode steps%s", ev.Request, steps, late)
		}
	}
}

// params resolves the experiment scale the run and all subcommands use:
// the quick or the default preset, whose decode iterations a -steps
// given on the command line (fs, parsed) replaces.
func params(fs *flag.FlagSet, seed uint64, steps int, quick bool) (exp.Params, error) {
	if err := checkSteps(steps); err != nil {
		return exp.Params{}, err
	}
	p := exp.DefaultParams()
	if quick {
		p = exp.QuickParams()
	}
	p.Seed = seed
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "steps" {
			p.DecodeSteps = steps
		}
	})
	return p, nil
}

// checkSteps rejects a -steps the engine cannot run: every decode
// measurement needs at least one iteration.
func checkSteps(steps int) error {
	if steps < 1 {
		return fmt.Errorf("-steps %d must be at least 1", steps)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hybrimoe <list|run <id>|all|demo|serve> [flags]`)
}
