package engine

import (
	"math"
	"strings"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/workload"
)

func TestOptionValidation(t *testing.T) {
	cfg := moe.DeepSeek()
	platform := hw.A6000Platform()
	cases := []struct {
		name string
		opt  Option
		want string // substring of the expected error
	}{
		{"negative ratio", WithCacheRatio(-0.1), "outside [0, 1]"},
		{"ratio above one", WithCacheRatio(1.5), "outside [0, 1]"},
		{"NaN ratio", WithCacheRatio(math.NaN()), "outside [0, 1]"},
		{"negative warmup", WithWarmupIters(-1), "must be non-negative"},
		{"nil prefetcher", WithPrefetcher(nil), "WithPrefetcher(nil)"},
		{"unknown request scheduler", WithRequestScheduler("psychic"), "unknown request scheduler"},
		{"nil admission", WithAdmission(nil), "WithAdmission(nil)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(cfg, platform, HybriMoEFramework(), tc.opt)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if _, err := New(cfg, platform, HybriMoEFramework(), nil); err == nil {
		t.Error("nil Option should error")
	}
}

// TestExplicitZeroCacheRatio pins the unset-vs-zero distinction: the
// default applies only when WithCacheRatio is never passed, and an
// explicit 0 yields a genuinely empty cache (the zero-cache baseline
// the old Options.fillDefaults made inexpressible).
func TestExplicitZeroCacheRatio(t *testing.T) {
	cfg := moe.DeepSeek()
	platform := hw.A6000Platform()

	def, err := New(cfg, platform, HybriMoEFramework(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.CacheCapacity(0.25); def.cache.Shard(0).Capacity() != want {
		t.Fatalf("unset ratio capacity = %d, want default %d", def.cache.Shard(0).Capacity(), want)
	}

	zero, err := New(cfg, platform, HybriMoEFramework(), WithSeed(1), WithCacheRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	if zero.cache.Shard(0).Capacity() != 0 {
		t.Fatalf("explicit zero ratio capacity = %d, want 0", zero.cache.Shard(0).Capacity())
	}
	_, total, m := serveAlone(zero, workload.Request{DecodeTokens: 3})
	if total <= 0 {
		t.Fatal("zero-cache engine must still run")
	}
	if m.HitRate() != 0 {
		t.Fatalf("zero-cache hit rate = %v, want 0", m.HitRate())
	}
	// No cache means strictly more demand traffic or CPU work than the
	// default — it must not be faster.
	if _, base, _ := serveAlone(def, workload.Request{DecodeTokens: 3}); total < base {
		t.Fatalf("zero cache (%v) beat a 25%% cache (%v)", total, base)
	}
}

func TestWithPrefetcherOverridesFrameworkName(t *testing.T) {
	fw := HybriMoEFramework()
	fw.Prefetch = "psychic" // never resolved: the instance wins
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), fw,
		WithSeed(2), WithPrefetcher(&prefetch.ImpactDriven{Window: 1}))
	if err != nil {
		t.Fatalf("explicit prefetcher should bypass name resolution: %v", err)
	}
	if _, total, _ := serveAlone(e, workload.Request{DecodeTokens: 2}); total <= 0 {
		t.Fatal("engine with injected prefetcher broken")
	}
}

func TestWarmupItersZeroDisablesWarmup(t *testing.T) {
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(),
		WithSeed(3), WithWarmupIters(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := e.cache.Shard(0).Len(); n != 0 {
		t.Fatalf("explicit zero warmup left %d residents", n)
	}
}
