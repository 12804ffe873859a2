package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/sim"
	"hybrimoe/internal/tensor"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// Engine simulates one framework serving one model on one platform.
type Engine struct {
	cfg      *moe.Config
	platform *hw.Platform
	fw       Framework
	set      settings

	gen *trace.Generator
	// cache holds one expert cache shard per device placement spreads
	// over.
	cache *cache.Multi
	// placeGPUs is how many devices placement spreads over: every GPU
	// for device-aware schedulers, GPU0 alone for single-GPU planners
	// regardless of the platform's GPU count (a plan that runs a
	// GPU1-resident expert on GPU0 without a transfer is not physical,
	// so their residency is confined too).
	placeGPUs int
	// decodeSched and prefillSched are the per-stage scheduling
	// strategies; scheduler points at the one for the current stage.
	decodeSched  sched.Scheduler
	prefillSched sched.Scheduler
	scheduler    sched.Scheduler
	pref         prefetch.Prefetcher
	gpuLayers    int // LayerMapped: leading layers resident on GPU

	// Absolute resource occupancy (seconds since run start); gpuBusy and
	// linkBusy hold one frontier per GPU / host link.
	cpuBusy  float64
	gpuBusy  []float64
	linkBusy []float64
	clock    float64

	// predScores/predF32/predIdx are predictedTopK's per-layer scratch —
	// fleet routers poll PredictedResidency once per eligible replica
	// per dispatch, so the probe must not allocate.
	predScores []float64
	predF32    []float32
	predIdx    []int
	// curTokens is the current step's batch size (prefetch load
	// prediction scales with it).
	curTokens int

	// Per-layer scratch of runStep and the cache refreshes after it,
	// reused across layers and steps; none of it outlives a layer:
	//   - dest: a transferred expert's destination shard, by index (a
	//     plan covers one layer);
	//   - gpuFrees/linkFrees: the plan's per-device Resources;
	//   - budgets: the prefetch link budgets;
	//   - loadScores/loadIdx: predictedLoads' top-k selection;
	//   - misses: missInsert's candidates.
	dest                []int
	gpuFrees, linkFrees []float64
	budgets             []float64
	loadScores          []float64
	loadIdx             []int
	misses              []moe.ExpertID
	// pfLayer is the layer prefetchInto is serving; the prefetch context
	// hooks are bound once so building a context allocates nothing.
	pfLayer        int
	pfTarget       func(moe.ExpertID) hw.Device
	pfIsCached     func(moe.ExpertID) bool
	pfPredictLoads func(int) []int

	cpuTL           *sim.Timeline
	gpuTLs, linkTLs []*sim.Timeline

	// Lifetime op counters, read through Session.Metrics.
	cpuOps, gpuOps, demandTransfers, prefetchTransfers, missInserts int
}

// New builds an engine for the framework's named strategies, resolved
// through the sched, prefetch and cache registries, configured by
// functional options:
//
//	e, err := engine.New(cfg, platform, engine.HybriMoEFramework(),
//		engine.WithCacheRatio(0.25),
//		engine.WithSeed(42),
//	)
//
// Unknown strategy names and out-of-range option values return errors.
// The cache is warm-started from historical activation frequency (a
// separate trace seed), matching how the compared frameworks place
// experts before serving.
func New(cfg *moe.Config, platform *hw.Platform, fw Framework, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := platform.Validate(); err != nil {
		return nil, err
	}
	set := defaultSettings()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("engine: nil Option")
		}
		if err := opt(&set); err != nil {
			return nil, err
		}
	}

	e := &Engine{cfg: cfg, platform: platform, fw: fw, set: set}
	e.gen = trace.New(cfg, trace.DefaultOptions(set.seed))

	e.gpuLayers = int(set.cacheRatio * float64(cfg.Layers))
	gpuLayer := func(l int) bool { return l < e.gpuLayers }
	if fw.Sched == "" {
		return nil, fmt.Errorf("engine: Framework.Sched must name a registered scheduler (have %v)", sched.Names())
	}
	env := sched.Config{GPULayer: gpuLayer}
	var err error
	if e.decodeSched, err = sched.New(fw.Sched, env); err != nil {
		return nil, err
	}
	prefillName := fw.PrefillSched
	if prefillName == "" {
		prefillName = fw.Sched
	}
	if e.prefillSched, err = sched.New(prefillName, env); err != nil {
		return nil, err
	}
	_, decEx := e.decodeSched.(*sched.Exhaustive)
	_, preEx := e.prefillSched.(*sched.Exhaustive)
	if (decEx || preEx) && cfg.RoutedExperts > sched.MaxExhaustiveTasks {
		// A layer can route every expert at once, and the reference
		// search refuses more than MaxExhaustiveTasks tasks.
		return nil, fmt.Errorf("engine: the exhaustive scheduler plans at most %d experts per layer, %s routes %d",
			sched.MaxExhaustiveTasks, cfg.Name, cfg.RoutedExperts)
	}
	e.scheduler = e.decodeSched
	if e.pref = set.prefetcher; e.pref == nil {
		if e.pref, err = prefetch.New(fw.Prefetch); err != nil {
			return nil, err
		}
	}
	gpus := platform.NumGPUs()
	decAware := sched.IsDeviceAware(e.decodeSched)
	preAware := sched.IsDeviceAware(e.prefillSched)
	if gpus > 1 && decAware != preAware {
		// One stage would spread residency over every device while the
		// other can only see GPU0 — the confined stage would treat the
		// spread experts as missing and re-transfer them forever. Reject
		// the mix instead of serving it wrong.
		return nil, fmt.Errorf(
			"engine: mixed device-aware and single-GPU stage schedulers (decode %q, prefill %q) on a %d-GPU platform",
			e.decodeSched.Name(), e.prefillSched.Name(), gpus)
	}
	e.placeGPUs = gpus
	if !decAware || !preAware {
		e.placeGPUs = 1
	}
	capacity := cfg.CacheCapacity(set.cacheRatio)
	if set.cacheRatio == 0 {
		// The explicit zero-cache baseline: CacheCapacity floors at one
		// expert, but a requested ratio of exactly 0 means none.
		capacity = 0
	}
	// One residency shard per placement device, each with the full
	// per-device capacity and its own policy instance (policies are
	// stateful).
	shards := make([]*cache.Cache, e.placeGPUs)
	for d := range shards {
		policy, err := cache.NewPolicy(fw.CachePolicy, cfg.ActivatedExperts)
		if err != nil {
			return nil, err
		}
		shards[d] = cache.New(capacity, policy)
	}
	e.cache = cache.NewMulti(shards...)
	e.gpuBusy = make([]float64, gpus)
	e.linkBusy = make([]float64, gpus)
	e.gpuFrees = make([]float64, gpus)
	e.linkFrees = make([]float64, gpus)
	e.budgets = make([]float64, e.placeGPUs)
	e.dest = make([]int, cfg.RoutedExperts)
	e.pfTarget = e.homeDevice
	e.pfIsCached = e.isCached
	e.pfPredictLoads = func(l int) []int { return e.predictedLoads(e.pfLayer, l) }
	e.warmCache()

	if set.recordTrace {
		e.cpuTL = sim.NewTimeline("CPU")
		e.gpuTLs = make([]*sim.Timeline, gpus)
		e.linkTLs = make([]*sim.Timeline, gpus)
		for d := 0; d < gpus; d++ {
			gpuName, linkName := "GPU", "PCIe"
			if gpus > 1 {
				gpuName = hw.GPUAt(d).String()
				linkName = "PCIe" + fmt.Sprint(d)
			}
			e.gpuTLs[d] = sim.NewTimeline(gpuName)
			e.linkTLs[d] = sim.NewTimeline(linkName)
		}
	}
	return e, nil
}

// warmCache fills the cache with the historically most-active experts,
// measured on a past window of the same workload (the "historical
// activation frequency" the static frameworks use), and feeds the
// observed routing scores to the cache policy so score-aware policies
// start with meaningful priorities — the state a long-running server
// would have. Layer-mapped frameworks skip this: their residency is the
// layer mapping.
func (e *Engine) warmCache() {
	if e.fw.LayerMapped {
		return
	}
	hist := e.gen.ForkHistory(e.set.seed ^ 0x5eedf00d)
	// counts is indexed layer*RoutedExperts+index.
	n := e.cfg.RoutedExperts
	counts := make([]int, e.cfg.Layers*n)
	var acts []trace.LayerActivation
	for i := 0; i < e.set.warmupIters; i++ {
		acts = trace.DecodeStepInto(acts, hist)
		for _, act := range acts {
			for x, load := range act.Loads {
				counts[act.Layer*n+x] += load
			}
			e.cache.ObserveScores(act.Layer, act.Scores)
		}
	}
	count := func(id moe.ExpertID) int { return counts[id.Layer*n+id.Index] }
	var ids []moe.ExpertID
	for k, c := range counts {
		if c > 0 {
			ids = append(ids, moe.ExpertID{Layer: k / n, Index: k % n})
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if count(ids[i]) != count(ids[j]) {
			return count(ids[i]) > count(ids[j])
		}
		if ids[i].Layer != ids[j].Layer {
			return ids[i].Layer < ids[j].Layer
		}
		return ids[i].Index < ids[j].Index
	})
	if e.fw.PinWarm {
		for _, id := range ids {
			if e.cache.Len() >= e.cache.Capacity() {
				break
			}
			e.cache.Pin(id)
		}
		return
	}
	e.cache.Warm(ids)
	// Replay the history into the policy — least frequent first so the
	// hottest experts end up both most counted and most recent — giving
	// LFU counts and LRU recency the state of a long-running server
	// instead of treating every warm expert as a one-hit wonder.
	for i := len(ids) - 1; i >= 0; i-- {
		for k := 0; k < count(ids[i]); k++ {
			e.cache.TouchHistorical(ids[i])
		}
	}
}

// isCached reports residency (on any device) for scheduling decisions.
func (e *Engine) isCached(id moe.ExpertID) bool {
	_, ok := e.residentOn(id)
	return ok
}

// residentOn reports which device holds an expert's weights, if any.
// Layer-mapped frameworks pin their GPU layers to GPU0.
func (e *Engine) residentOn(id moe.ExpertID) (hw.Device, bool) {
	if e.fw.LayerMapped {
		return hw.GPU, id.Layer < e.gpuLayers
	}
	d, ok := e.cache.Owner(id)
	return hw.GPUAt(d), ok
}

// homeDevice is the device an expert's transfers target when no plan
// chose one: misses are attributed to it and prefetched weights land on
// it. GPU0 on single-GPU platforms; striped deterministically across
// devices otherwise, so placement (and the per-device caches) spread
// the expert population evenly.
func (e *Engine) homeDevice(id moe.ExpertID) hw.Device {
	n := e.placeGPUs
	if n == 1 {
		return hw.GPU
	}
	return hw.GPUAt((id.Layer*e.cfg.RoutedExperts + id.Index) % n)
}

// attentionDevice reports where a layer's attention + shared experts
// run. Only llama.cpp's CPU layers run them on the CPU.
func (e *Engine) attentionDevice(layer int) hw.Device {
	if e.fw.LayerMapped && layer >= e.gpuLayers {
		return hw.CPU
	}
	return hw.GPU
}

// stepBuffers is the scratch one engine iteration borrows from
// stepPool: the iteration's routing and the per-layer plan task list
// (schedulers never retain their tasks). Borrowing rather than owning
// keeps idle engines small, and grids and fleets keep many alive; every
// field is overwritten before it is read, so engines sharing the pool
// never see each other's data.
type stepBuffers struct {
	acts  []trace.LayerActivation
	tasks []sched.Task
}

var stepPool = sync.Pool{New: func() any { return new(stepBuffers) }}

// borrowStep takes step buffers from the pool; runStep returns them.
func borrowStep() *stepBuffers { return stepPool.Get().(*stepBuffers) }

// runStep executes one forward pass (all layers) for the activations in
// b.acts and the token/context sizes, returning its latency. It returns
// b to the pool.
// perLoadLookups marks a merged pure-decode iteration: cache lookups
// (and the policy touches they carry) are then recorded once per token
// routed to an expert — the load, i.e. the batch width — rather than
// once per distinct expert, so hit/miss totals and policy state stay
// conserved against the equivalent run of unbatched decode steps while
// the weights themselves — the compute and transfer the plan schedules
// — are still touched once per expert, which is where batching wins.
// Iterations containing prefill work keep the prefill convention (one
// lookup per distinct expert per pass) whether merged or solo, so
// hit rates stay comparable across batch policies.
func (e *Engine) runStep(b *stepBuffers, tokens, context int, perLoadLookups bool) float64 {
	defer stepPool.Put(b)
	stepStart := e.clock
	e.curTokens = tokens
	for _, act := range b.acts {
		layerStart := e.clock

		// Attention + shared experts. Weight traffic: INT4 QKVO
		// projections plus the always-resident shared experts.
		attFlops := hw.AttentionFlops(e.cfg.Hidden, tokens, context) + e.cfg.SharedFlops(tokens)
		attBytes := int64(4*e.cfg.Hidden*e.cfg.Hidden/2) +
			e.cfg.SharedExpertBytes()*int64(e.cfg.SharedExperts)
		// Attention runs on GPU0: tensor-parallel attention is not
		// modelled, so the extra devices accelerate expert execution
		// only.
		var attEnd float64
		if e.attentionDevice(act.Layer) == hw.GPU {
			start := max(e.gpuBusy[0], layerStart)
			attEnd = start + e.platform.GPUs[0].ExpertTime(attFlops, attBytes)
			e.recordSpan(e.gpuTL(0), start, attEnd, "attn")
			e.gpuBusy[0] = attEnd
		} else {
			start := max(e.cpuBusy, layerStart)
			attEnd = start + e.platform.CPU.ExpertTime(attFlops, attBytes, true)
			e.recordSpan(e.cpuTL, start, attEnd, "attn")
			e.cpuBusy = attEnd
		}

		// Routed experts: look up residency (with hit accounting), plan
		// and apply. Every insert of this layer spares its routed
		// experts.
		guard := cache.Guard{Layer: act.Layer, Loads: act.Loads}
		for x, load := range act.Loads {
			if load <= 0 {
				continue
			}
			id := moe.ExpertID{Layer: act.Layer, Index: x}
			lookups := 1
			if perLoadLookups {
				// One lookup per routed token — the load is the batch
				// width here, bounded by the concurrency limit, and the
				// repeated policy touches mirror the ones the batched
				// requests' separate steps would have made.
				lookups = load
			}
			for n := 0; n < lookups; n++ {
				// Hit/miss statistics; misses are attributed to the
				// expert's home device.
				e.cache.Lookup(id, e.homeDevice(id).GPUIndex())
			}
		}
		b.tasks = sched.TasksFromLoads(b.tasks, e.cfg, act.Layer, act.Loads, e.residentOn)
		tasks := b.tasks
		res := sched.Resources{
			CPUFree:  max(0, e.cpuBusy-layerStart),
			GPUFree:  e.gpuFrees,
			LinkFree: e.linkFrees,
		}
		for d := range e.gpuBusy {
			res.GPUFree[d] = max(0, e.gpuBusy[d]-layerStart)
			res.LinkFree[d] = max(0, e.linkBusy[d]-layerStart)
		}
		plan := e.scheduler.Plan(tasks, e.platform, res)
		if e.set.validatePlans {
			if err := plan.Validate(tasks, res); err != nil {
				panic(fmt.Sprintf("engine: invalid plan at layer %d: %v", act.Layer, err))
			}
		}
		e.applyPlan(plan, layerStart, guard)

		layerEnd := max(attEnd, layerStart+plan.Makespan)
		e.clock = layerEnd

		// Cache policy sees this iteration's routing scores.
		e.cache.ObserveScores(act.Layer, act.Scores)

		// Spend PCIe idle time: prefetch upcoming layers, then refresh
		// the cache with this layer's misses if the framework does so.
		e.prefetchInto(act.Layer, layerEnd, guard)
		e.missInsert(act, layerEnd, guard)
	}
	return e.clock - stepStart
}

func (e *Engine) applyPlan(plan *sched.Plan, layerStart float64, guard cache.Guard) {
	// Transfer destinations: the op's device says which shard receives
	// the weights the plan moved.
	for _, id := range plan.Transferred {
		e.dest[id.Index] = 0
	}
	for _, op := range plan.Ops {
		absStart, absEnd := layerStart+op.Start, layerStart+op.End
		switch op.Kind {
		case sched.OpComputeCPU:
			e.cpuOps++
			e.recordOp(e.cpuTL, absStart, absEnd, "", op.Expert)
			e.cpuBusy = max(e.cpuBusy, absEnd)
		case sched.OpComputeGPU:
			d := op.Device.GPUIndex()
			e.gpuOps++
			e.recordOp(e.gpuTL(d), absStart, absEnd, "", op.Expert)
			e.gpuBusy[d] = max(e.gpuBusy[d], absEnd)
		case sched.OpTransfer:
			d := op.Device.GPUIndex()
			e.demandTransfers++
			e.recordOp(e.linkTL(d), absStart, absEnd, "", op.Expert)
			e.linkBusy[d] = max(e.linkBusy[d], absEnd)
			e.dest[op.Expert.Index] = d
		}
	}
	for _, id := range plan.Transferred {
		e.cache.Insert(id, e.dest[id.Index], guard)
	}
}

// prefetchInto spends PCIe idle time until layerEnd on upcoming layers,
// each pick riding its target device's own host link.
func (e *Engine) prefetchInto(layer int, layerEnd float64, guard cache.Guard) {
	// Only the links placement can target count: a confined single-GPU
	// planner on an N-GPU platform must not see the idle extra links,
	// or the prefetcher would price candidates it can never afford.
	budgets := e.budgets
	anyIdle := false
	for d := range budgets {
		budgets[d] = layerEnd - e.linkBusy[d]
		if budgets[d] > 0 {
			anyIdle = true
		} else {
			budgets[d] = 0
		}
	}
	if !anyIdle {
		return
	}
	e.pfLayer = layer
	ctx := prefetch.Context{
		Cfg:            e.cfg,
		Platform:       e.platform,
		Layer:          layer,
		Budgets:        budgets,
		Target:         e.pfTarget,
		PredictedLoads: e.pfPredictLoads,
		IsCached:       e.pfIsCached,
		Scheduler:      e.scheduler,
	}
	picks := e.pref.Select(ctx)
	for _, id := range picks {
		d := e.homeDevice(id).GPUIndex()
		// A shard full of guarded residents only blocks its own
		// device's picks; on one device the failure repeats, matching
		// the old early exit.
		if _, ok := e.cache.Insert(id, d, guard); !ok {
			continue
		}
		xfer := e.platform.Links[d].TransferTime(e.cfg.ExpertBytes())
		start := e.linkBusy[d]
		e.recordOp(e.linkTL(d), start, start+xfer, "pf:", id)
		e.linkBusy[d] = start + xfer
		e.prefetchTransfers++
	}
}

// predictedLoads estimates a future layer's per-expert loads from the
// gate-reuse prediction: the top-k predicted experts receive their
// expected token share for the current batch size (unit loads at
// decode).
func (e *Engine) predictedLoads(curLayer, layer int) []int {
	lookahead := layer - curLayer
	if lookahead <= 0 || layer >= e.cfg.Layers {
		return make([]int, e.cfg.RoutedExperts)
	}
	e.loadScores = e.gen.PredictedScoresInto(e.loadScores, layer, lookahead)
	scores := e.loadScores
	loads := make([]int, e.cfg.RoutedExperts)
	e.loadIdx = tensor.TopKInto(e.loadIdx, scores, e.cfg.ActivatedExperts)
	assignments := float64(e.curTokens * e.cfg.ActivatedExperts)
	for _, x := range e.loadIdx {
		load := int(scores[x]*assignments + 0.5)
		if load < 1 {
			load = 1
		}
		loads[x] = load
	}
	return loads
}

// missInsert refreshes the cache with this layer's missed experts in
// leftover PCIe idle time (static-scheduler frameworks' cache path).
func (e *Engine) missInsert(act trace.LayerActivation, layerEnd float64, guard cache.Guard) {
	if !e.fw.OnMissInsert {
		return
	}
	misses := e.misses[:0]
	for x, load := range act.Loads {
		if load == 0 {
			continue
		}
		id := moe.ExpertID{Layer: act.Layer, Index: x}
		if !e.isCached(id) {
			misses = append(misses, id)
		}
	}
	e.misses = misses
	// Highest routing score first, ties in index order.
	slices.SortStableFunc(misses, func(a, b moe.ExpertID) int {
		return cmp.Compare(act.Scores[b.Index], act.Scores[a.Index])
	})
	for _, id := range misses {
		d := e.homeDevice(id).GPUIndex()
		xfer := e.platform.Links[d].TransferTime(e.cfg.ExpertBytes())
		// Skip, don't stop: a lower-scored miss may home to a different
		// link with idle time (or a shard with evictable residents) even
		// when this one's does not. On a single device the skip repeats
		// for every remaining miss, so the outcome matches the old
		// single-link early exit exactly.
		if e.linkBusy[d]+xfer > layerEnd {
			continue
		}
		if _, ok := e.cache.Insert(id, d, guard); !ok {
			continue
		}
		start := e.linkBusy[d]
		e.recordOp(e.linkTL(d), start, start+xfer, "mi:", id)
		e.linkBusy[d] = start + xfer
		e.missInserts++
	}
}

// recordSpan books [start, end) on tl, a no-op without
// WithTraceRecording.
func (e *Engine) recordSpan(tl *sim.Timeline, start, end float64, name string) {
	if tl == nil {
		return
	}
	tl.Add(start, end, name)
}

// recordOp is recordSpan for an expert's span, labelled prefix+id; the
// label is formatted only when the timeline is recorded.
func (e *Engine) recordOp(tl *sim.Timeline, start, end float64, prefix string, id moe.ExpertID) {
	if tl == nil {
		return
	}
	tl.Add(start, end, prefix+id.String())
}

// gpuTL and linkTL return device d's recorded timeline (nil without
// WithTraceRecording).
func (e *Engine) gpuTL(d int) *sim.Timeline {
	if e.gpuTLs == nil {
		return nil
	}
	return e.gpuTLs[d]
}

func (e *Engine) linkTL(d int) *sim.Timeline {
	if e.linkTLs == nil {
		return nil
	}
	return e.linkTLs[d]
}

// Clock reports the engine's simulation clock in seconds — the frontier
// a fleet layer interleaves replica steps on.
func (e *Engine) Clock() float64 { return e.clock }

// PredictedResidency reports the cache-affinity signal fleet routers
// steer on: of the experts the gate-reuse prediction expects the next
// iteration to activate (lookahead-1 predicted top-k per layer, the same
// prediction the impact-driven prefetcher prices), how many are already
// resident in the expert cache this engine's placement can use. The call
// is pure — it reads the stable per-iteration prediction stream and the
// residency sets without touching hit/miss accounting or policy state —
// so routers may poll it at every dispatch without perturbing runs.
func (e *Engine) PredictedResidency() (resident, predicted int) {
	for l := 0; l < e.cfg.Layers; l++ {
		for _, x := range e.predictedTopK(l) {
			predicted++
			// isCached covers layer-mapped frameworks too (their
			// residency is the static layer split, not the cache).
			if e.isCached(moe.ExpertID{Layer: l, Index: x}) {
				resident++
			}
		}
	}
	return resident, predicted
}

// residentWorkingSet snapshots the predicted expert working set that is
// resident right now — the same lookahead-1 top-k per layer
// PredictedResidency counts, materialised as serializable refs. It is
// what a prefill checkpoint carries across a replica handoff: the
// affinity and warm-admission hint for the adopting side. Pure, like
// PredictedResidency.
func (e *Engine) residentWorkingSet() []workload.ExpertRef {
	var refs []workload.ExpertRef
	for l := 0; l < e.cfg.Layers; l++ {
		for _, x := range e.predictedTopK(l) {
			if e.isCached(moe.ExpertID{Layer: l, Index: x}) {
				refs = append(refs, workload.ExpertRef{Layer: l, Index: x})
			}
		}
	}
	return refs
}

// predictedTopK returns layer l's lookahead-1 predicted top-k experts,
// ranked on float32 scores, in the engine's reused scratch (valid until
// the next call).
func (e *Engine) predictedTopK(l int) []int {
	e.predScores = e.gen.PredictedScoresInto(e.predScores, l, 1)
	if cap(e.predF32) < len(e.predScores) {
		e.predF32 = make([]float32, len(e.predScores))
	}
	f32 := e.predF32[:len(e.predScores)]
	for i, v := range e.predScores {
		f32[i] = float32(v)
	}
	e.predIdx = tensor.TopKInto(e.predIdx, f32, e.cfg.ActivatedExperts)
	return e.predIdx
}

// IsResident reports whether one expert (by grid position) is resident
// in the cache this engine's placement can use — the per-expert probe
// checkpoint-aware affinity routing scores migrating requests with.
// Out-of-range positions are simply not resident.
func (e *Engine) IsResident(layer, index int) bool {
	if layer < 0 || layer >= e.cfg.Layers || index < 0 || index >= e.cfg.RoutedExperts {
		return false
	}
	return e.isCached(moe.ExpertID{Layer: layer, Index: index})
}

// AdoptWorkingSet admits a migrated request's expert working set into
// this engine's cache — the warm-not-cold handoff: the decode replica
// stages the checkpoint's predicted experts (from its own host copy,
// concurrent with the KV transfer the interconnect prices) so the
// request's first decode steps hit instead of faulting. Inserts go
// through the normal placement path under the zero guard, so only a
// full shard of pinned residents declines. It reports how many of
// the refs ended up resident (already-present ones count — they are
// warm, which is what the caller is asking). Layer-mapped frameworks
// have static residency and adopt nothing.
func (e *Engine) AdoptWorkingSet(experts []workload.ExpertRef) (warm int) {
	if e.fw.LayerMapped {
		for _, ref := range experts {
			if e.IsResident(ref.Layer, ref.Index) {
				warm++
			}
		}
		return warm
	}
	for _, ref := range experts {
		if ref.Layer < 0 || ref.Layer >= e.cfg.Layers || ref.Index < 0 || ref.Index >= e.cfg.RoutedExperts {
			continue
		}
		id := moe.ExpertID{Layer: ref.Layer, Index: ref.Index}
		if e.isCached(id) {
			warm++
			continue
		}
		if _, ok := e.cache.Insert(id, e.homeDevice(id).GPUIndex(), cache.Guard{}); ok {
			warm++
		}
	}
	return warm
}

// Platform exposes the hardware model this engine runs on — the fleet
// layer reads its Interconnect to price replica-to-replica migration.
func (e *Engine) Platform() *hw.Platform { return e.platform }

// Timelines returns the recorded span timelines for the CPU, GPU0 and
// GPU0's link (nil without WithTraceRecording). Multi-GPU devices are
// rendered by Gantt.
func (e *Engine) Timelines() (cpu, gpu, link *sim.Timeline) {
	return e.cpuTL, e.gpuTL(0), e.linkTL(0)
}

// Gantt renders the recorded timelines, or "" without WithTraceRecording.
func (e *Engine) Gantt(width int) string {
	if e.cpuTL == nil {
		return ""
	}
	tls := make([]*sim.Timeline, 0, 1+2*len(e.gpuTLs))
	tls = append(tls, e.gpuTLs...)
	tls = append(tls, e.cpuTL)
	tls = append(tls, e.linkTLs...)
	return sim.Gantt(width, tls...)
}
