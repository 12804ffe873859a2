// Package prefetch implements the paper's impact-driven inter-layer
// prefetching (§IV-C) plus the baselines it is compared against.
//
// While a layer's experts execute, the PCIe link is often idle. The
// prefetcher spends that idle time moving experts of upcoming layers to
// the GPU. HybriMoE's contribution is *which* experts: it predicts the
// next Window layers' activations by reusing gate information, then
// simulates each candidate's effect on that future layer's schedule
// (via the §IV-B scheduling simulator) and greedily prefetches the
// candidates with the highest expected makespan reduction per transfer.
package prefetch

import (
	"fmt"
	"sort"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/sched"
)

// DefaultWindow is the paper's lookahead depth: gate information of the
// next three layers.
const DefaultWindow = 3

// Context carries everything a prefetcher may consult for one decision.
type Context struct {
	Cfg      *moe.Config
	Platform *hw.Platform
	// Layer is the layer whose execution is about to start/run; layers
	// Layer+1 … Layer+Window are prefetch targets.
	Layer int
	// Budget is the PCIe idle time (seconds) available before the next
	// layer's own transfers need the link. Prefetchers must keep the
	// summed transfer time of their picks within it. On multi-GPU
	// platforms it describes GPU0's link; Budgets carries the rest.
	Budget float64
	// Budgets, when non-nil, carries the idle time of every device's
	// host link (index 0 takes precedence over Budget). Each pick spends
	// its target device's budget, priced by that device's link model.
	Budgets []float64
	// Target reports the destination device for a candidate expert —
	// whose link the transfer would ride and whose budget it spends.
	// Nil means everything targets GPU0 (the single-link engine).
	Target func(moe.ExpertID) hw.Device
	// PredictedLoads estimates per-expert token loads for a future
	// layer (absolute index). Entries of zero mean "not predicted
	// active".
	PredictedLoads func(layer int) []int
	// IsCached reports current GPU residency (on any device).
	IsCached func(moe.ExpertID) bool
	// Scheduler is the what-if simulator used to price candidates.
	Scheduler sched.Scheduler
}

// target resolves a candidate's destination device.
func (ctx Context) target(id moe.ExpertID) hw.Device {
	if ctx.Target == nil {
		return hw.GPU
	}
	return ctx.Target(id)
}

// budgets materialises the per-link budget vector the selection loops
// draw down — a copy, so Select never mutates the caller's slice.
func (ctx Context) budgets() []float64 {
	if ctx.Budgets == nil {
		return []float64{ctx.Budget}
	}
	out := make([]float64, len(ctx.Budgets))
	copy(out, ctx.Budgets)
	return out
}

// take spends one transfer of bytes to device d from the budget vector,
// reporting whether it fit.
func take(ctx Context, budgets []float64, d hw.Device, bytes int64) bool {
	i := d.GPUIndex()
	if i >= len(budgets) {
		return false
	}
	xfer := ctx.Platform.LinkOf(d).TransferTime(bytes)
	if budgets[i] < xfer {
		return false
	}
	budgets[i] -= xfer
	return true
}

// Prefetcher selects experts to preload.
type Prefetcher interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Select returns the expert IDs to transfer, in transfer order,
	// with summed transfer time within ctx.Budget.
	Select(ctx Context) []moe.ExpertID
}

// None never prefetches (the ablation baseline).
type None struct{}

// NewNone returns the no-op prefetcher.
func NewNone() *None { return &None{} }

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Select implements Prefetcher.
func (None) Select(Context) []moe.ExpertID { return nil }

// NextLayerTopK is the naive baseline most offloading frameworks use:
// prefetch the predicted top-k experts of the next layer only, highest
// predicted load first, ignoring scheduling impact.
type NextLayerTopK struct{}

// NewNextLayerTopK returns the naive next-layer prefetcher.
func NewNextLayerTopK() *NextLayerTopK { return &NextLayerTopK{} }

// Name implements Prefetcher.
func (NextLayerTopK) Name() string { return "next-layer-topk" }

// Select implements Prefetcher.
func (NextLayerTopK) Select(ctx Context) []moe.ExpertID {
	next := ctx.Layer + 1
	if next >= ctx.Cfg.Layers {
		return nil
	}
	loads := ctx.PredictedLoads(next)
	type cand struct {
		id   moe.ExpertID
		load int
	}
	var cands []cand
	for e, load := range loads {
		if load == 0 {
			continue
		}
		id := moe.ExpertID{Layer: next, Index: e}
		if ctx.IsCached(id) {
			continue
		}
		cands = append(cands, cand{id, load})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].load > cands[j].load })
	budgets := ctx.budgets()
	var out []moe.ExpertID
	for _, c := range cands {
		if take(ctx, budgets, ctx.target(c.id), ctx.Cfg.ExpertBytes()) {
			out = append(out, c.id)
		}
	}
	return out
}

// ImpactDriven is the paper's prefetcher: candidates from the next
// Window layers are priced by simulating the future layer's schedule
// with and without the candidate resident, and the largest expected
// gains are prefetched first.
type ImpactDriven struct {
	// Window is the lookahead depth in layers (DefaultWindow when 0).
	Window int
}

// NewImpactDriven returns the impact-driven prefetcher with the paper's
// 3-layer window.
func NewImpactDriven() *ImpactDriven { return &ImpactDriven{Window: DefaultWindow} }

// Name implements Prefetcher.
func (p *ImpactDriven) Name() string { return "impact-driven" }

// Select implements Prefetcher.
func (p *ImpactDriven) Select(ctx Context) []moe.ExpertID {
	window := p.Window
	if window <= 0 {
		window = DefaultWindow
	}
	budgets := ctx.budgets()
	canAfford := false
	for d := range budgets {
		if budgets[d] >= ctx.Platform.Links[d].TransferTime(ctx.Cfg.ExpertBytes()) {
			canAfford = true
			break
		}
	}
	if !canAfford {
		return nil
	}

	type scored struct {
		id   moe.ExpertID
		gain float64
	}
	var cands []scored
	for d := 1; d <= window; d++ {
		layer := ctx.Layer + d
		if layer >= ctx.Cfg.Layers {
			break
		}
		loads := ctx.PredictedLoads(layer)
		tasks := sched.TasksFromLoads(ctx.Cfg, layer, loads, ctx.IsCached)
		if len(tasks) == 0 {
			continue
		}
		base := sched.SimulateMakespan(ctx.Scheduler, tasks, ctx.Platform, sched.Resources{}, nil)
		for _, task := range tasks {
			if task.Cached {
				continue
			}
			with := sched.SimulateMakespan(ctx.Scheduler, tasks, ctx.Platform, sched.Resources{},
				map[moe.ExpertID]bool{task.ID: true})
			gain := base - with
			if gain <= 0 {
				continue
			}
			// Discount distant layers: prediction error grows with
			// lookahead, so a nearer equal gain is worth more.
			gain /= float64(d)
			cands = append(cands, scored{id: task.ID, gain: gain})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })

	var out []moe.ExpertID
	for _, c := range cands {
		if take(ctx, budgets, ctx.target(c.id), ctx.Cfg.ExpertBytes()) {
			out = append(out, c.id)
		}
	}
	return out
}

var (
	_ Prefetcher = (*None)(nil)
	_ Prefetcher = (*NextLayerTopK)(nil)
	_ Prefetcher = (*ImpactDriven)(nil)
)

// Factory builds one prefetcher instance for an engine run.
type Factory func() Prefetcher

var registry = map[string]Factory{}

// Register makes a prefetcher constructible by name through New.
// Registering a duplicate name or a nil factory panics: both are
// programming errors in plugin wiring, caught at init time.
func Register(name string, f Factory) {
	if name == "" {
		panic("prefetch: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("prefetch: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("prefetch: Register(%q) called twice", name))
	}
	registry[name] = f
}

// New builds the named prefetcher, or returns a descriptive error for
// an unknown name.
func New(name string) (Prefetcher, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered prefetchers in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("none", func() Prefetcher { return NewNone() })
	Register("next-layer-topk", func() Prefetcher { return NewNextLayerTopK() })
	Register("impact-driven", func() Prefetcher { return NewImpactDriven() })
}
