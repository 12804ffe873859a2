// Package moe defines the MoE model abstractions the reproduction works
// with: static model configurations matching the paper's Table II
// (Mixtral-8x7B, Qwen2-57B-A14B, DeepSeek-V2-Lite), expert identity and
// sizing, and a small functional MoE whose router and experts execute
// real arithmetic for tests and examples.
package moe

import (
	"fmt"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/quant"
)

// ExpertID identifies one routed expert by layer and index within the
// layer. Shared experts are not cached or scheduled individually — they
// are resident on the GPU in every framework the paper compares — so
// they never get IDs.
type ExpertID struct {
	Layer int
	Index int
}

// String renders "L12.E5".
func (e ExpertID) String() string { return fmt.Sprintf("L%d.E%d", e.Layer, e.Index) }

// Config describes an MoE model's architecture, mirroring the paper's
// Table II.
type Config struct {
	Name string
	// Layers is the number of transformer blocks with MoE FFNs.
	Layers int
	// SharedExperts is the number of always-active shared experts.
	SharedExperts int
	// RoutedExperts is the number of routed experts per layer (N).
	RoutedExperts int
	// ActivatedExperts is the router's top-k (K).
	ActivatedExperts int
	// Hidden is the model (residual stream) width.
	Hidden int
	// Intermediate is the routed-expert FFN inner width.
	Intermediate int
	// SharedIntermediate is the shared-expert FFN inner width (0 when
	// SharedExperts is 0).
	SharedIntermediate int
}

// Validate reports an error for inconsistent configurations.
func (c *Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("moe: %s has %d layers", c.Name, c.Layers)
	case c.RoutedExperts <= 0:
		return fmt.Errorf("moe: %s has %d routed experts", c.Name, c.RoutedExperts)
	case c.ActivatedExperts <= 0 || c.ActivatedExperts > c.RoutedExperts:
		return fmt.Errorf("moe: %s activates %d of %d experts", c.Name, c.ActivatedExperts, c.RoutedExperts)
	case c.Hidden <= 0 || c.Intermediate <= 0:
		return fmt.Errorf("moe: %s has invalid dims %dx%d", c.Name, c.Hidden, c.Intermediate)
	case c.SharedExperts < 0:
		return fmt.Errorf("moe: %s has negative shared experts", c.Name)
	case c.SharedExperts > 0 && c.SharedIntermediate <= 0:
		return fmt.Errorf("moe: %s has shared experts but no shared dim", c.Name)
	}
	return nil
}

// TotalRoutedExperts reports Layers × RoutedExperts, the cacheable
// population.
func (c *Config) TotalRoutedExperts() int { return c.Layers * c.RoutedExperts }

// expertBits is the width routed experts are stored and moved at: INT4,
// as the paper's Marlin kernels use.
const expertBits = 4

// ExpertBytes reports the INT4-quantized weight footprint of one routed
// expert (gate, up and down projections), i.e. the bytes one cache miss
// moves across PCIe.
func (c *Config) ExpertBytes() int64 { return FFNBytes(c.Hidden, c.Intermediate, expertBits) }

// SharedExpertBytes reports the INT4 footprint of one shared expert.
func (c *Config) SharedExpertBytes() int64 {
	if c.SharedExperts == 0 {
		return 0
	}
	return FFNBytes(c.Hidden, c.SharedIntermediate, expertBits)
}

// FFNBytes reports the footprint of one gated FFN quantized at bits:
// the gate and up projections (inter×hidden) and the down projection
// (hidden×inter).
func FFNBytes(hidden, inter, bits int) int64 {
	return 2*quant.SizeBytes(inter, hidden, bits, quant.DefaultGroupSize) +
		quant.SizeBytes(hidden, inter, bits, quant.DefaultGroupSize)
}

// kvGroupSharing is the grouped-query sharing factor KVBytes assumes:
// 8 query heads share each KV head, the common production setting.
const kvGroupSharing = 8

// KVBytes reports the KV-cache footprint of one request at the given
// context length: an FP16 K and V vector of Hidden width per layer per
// token, divided by the grouped-query sharing factor. This is the byte
// volume that migrates with a request at a prefill→decode handoff.
func (c *Config) KVBytes(context int) int64 {
	if context <= 0 {
		return 0
	}
	const fp16 = 2
	perToken := int64(c.Layers) * int64(c.Hidden) * 2 * fp16 / kvGroupSharing
	return int64(context) * perToken
}

// ExpertFlops reports the FLOPs of one routed expert over a token batch.
func (c *Config) ExpertFlops(tokens int) float64 {
	return hw.ExpertFlops(c.Hidden, c.Intermediate, tokens)
}

// SharedFlops reports the FLOPs of all shared experts over a batch.
func (c *Config) SharedFlops(tokens int) float64 {
	if c.SharedExperts == 0 {
		return 0
	}
	return float64(c.SharedExperts) * hw.ExpertFlops(c.Hidden, c.SharedIntermediate, tokens)
}

// CacheCapacity converts a GPU expert cache ratio (e.g. 0.25 for the
// paper's 25% setting) into a whole number of cacheable experts, never
// below the per-layer activation count so at least one layer's worth of
// hits is possible at the smallest setting.
func (c *Config) CacheCapacity(ratio float64) int {
	n := int(ratio * float64(c.TotalRoutedExperts()))
	if n < 1 {
		n = 1
	}
	return n
}

// Mixtral returns the Mixtral-8x7B-Instruct configuration from Table II:
// few large experts, no shared expert.
func Mixtral() *Config {
	return &Config{
		Name:             "Mixtral",
		Layers:           32,
		SharedExperts:    0,
		RoutedExperts:    8,
		ActivatedExperts: 2,
		Hidden:           4096,
		Intermediate:     14336,
	}
}

// Qwen2 returns the Qwen2-57B-A14B-Instruct configuration from Table II:
// many medium experts plus one large shared expert.
func Qwen2() *Config {
	return &Config{
		Name:               "Qwen2",
		Layers:             28,
		SharedExperts:      1,
		RoutedExperts:      64,
		ActivatedExperts:   8,
		Hidden:             3584,
		Intermediate:       2560, // 18944/64-expert granularity: per-expert FFN width
		SharedIntermediate: 20480,
	}
}

// DeepSeek returns the DeepSeek-V2-Lite-Chat configuration from Table II:
// many small experts plus two shared experts.
func DeepSeek() *Config {
	return &Config{
		Name:               "DeepSeek",
		Layers:             26,
		SharedExperts:      2,
		RoutedExperts:      64,
		ActivatedExperts:   6,
		Hidden:             2048,
		Intermediate:       1408,
		SharedIntermediate: 1408,
	}
}

// AllModels returns the three evaluated configurations in the order the
// paper's figures use.
func AllModels() []*Config {
	return []*Config{DeepSeek(), Mixtral(), Qwen2()}
}

// ByName looks a configuration up by case-sensitive name.
func ByName(name string) (*Config, error) {
	for _, c := range AllModels() {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("moe: unknown model %q (have DeepSeek, Mixtral, Qwen2)", name)
}
