package hw

import "testing"

// TestPresetsValidate table-tests Validate across every preset —
// single-GPU, laptop, unit and the multi-GPU shards — so preset drift
// (a forgotten link, a zeroed throughput) fails in CI rather than at
// runtime inside an engine run.
func TestPresetsValidate(t *testing.T) {
	presets := []struct {
		name string
		p    *Platform
		gpus int
	}{
		{"a6000", A6000Platform(), 1},
		{"laptop", LaptopPlatform(), 1},
		{"unit", UnitPlatform(), 1},
		{"dual-a6000", MultiA6000Platform(2), 2},
		{"quad-a6000", MultiA6000Platform(4), 4},
		{"multi-a6000-3", MultiA6000Platform(3), 3},
	}
	for _, tc := range presets {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatalf("preset %s invalid: %v", tc.name, err)
			}
			topo := tc.p.Topology()
			if topo.GPUs != tc.gpus || topo.Links != tc.gpus {
				t.Fatalf("preset %s topology = %+v, want %d GPUs with one link each", tc.name, topo, tc.gpus)
			}
			if tc.p.NumGPUs() != tc.gpus {
				t.Fatalf("preset %s NumGPUs = %d, want %d", tc.name, tc.p.NumGPUs(), tc.gpus)
			}
		})
	}
}

func TestMultiA6000Degenerate(t *testing.T) {
	if got, want := MultiA6000Platform(1).Name, A6000Platform().Name; got != want {
		t.Fatalf("MultiA6000Platform(1) name = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MultiA6000Platform(0) should panic")
		}
	}()
	MultiA6000Platform(0)
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		ok   bool
	}{
		{"single", Topology{GPUs: 1, Links: 1}, true},
		{"quad", Topology{GPUs: 4, Links: 4}, true},
		{"no-gpus", Topology{GPUs: 0, Links: 0}, false},
		{"missing-link", Topology{GPUs: 2, Links: 1}, false},
		{"extra-link", Topology{GPUs: 1, Links: 2}, false},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	bad := MultiA6000Platform(2)
	bad.Links = bad.Links[:1]
	if err := bad.Validate(); err == nil {
		t.Error("platform with fewer links than GPUs should fail validation")
	}
	bad2 := MultiA6000Platform(2)
	bad2.GPUs[1].PeakFlops = 0
	if err := bad2.Validate(); err == nil {
		t.Error("platform with an invalid second GPU should fail validation")
	}
}
