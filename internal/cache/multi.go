package cache

import (
	"fmt"

	"hybrimoe/internal/moe"
)

// Multi is the per-device expert cache: one residency shard per GPU,
// each with its own capacity, replacement policy and hit/miss
// accounting, so residency questions answer "which device holds it",
// not just "is it on the GPU". A one-shard Multi delegates everything
// to its single Cache and is behaviour-identical to the pre-multi-GPU
// engine. Shards are indexed by GPU device index (hw.Device.GPUIndex).
type Multi struct {
	shards []*Cache
	// cursor round-robin-stripes Warm and Pin across shards so the warm
	// start spreads the hottest experts over every device.
	cursor int
}

// NewMulti builds the per-device cache from one shard per GPU. It
// panics on an empty or nil shard list — topology bugs, caught at
// construction like Cache's own invariants.
func NewMulti(shards ...*Cache) *Multi {
	if len(shards) == 0 {
		panic("cache: NewMulti with no shards")
	}
	for i, s := range shards {
		if s == nil {
			panic(fmt.Sprintf("cache: NewMulti with nil shard %d", i))
		}
	}
	return &Multi{shards: shards}
}

// Devices reports the shard count (one per GPU).
func (m *Multi) Devices() int { return len(m.shards) }

// Shard exposes one device's cache for analysis and tests.
func (m *Multi) Shard(d int) *Cache { return m.shards[d] }

// Owner reports which device holds id, if any.
func (m *Multi) Owner(id moe.ExpertID) (int, bool) {
	for d, s := range m.shards {
		if s.Contains(id) {
			return d, true
		}
	}
	return 0, false
}

// Contains reports residency on any device without touching hit/miss
// accounting.
func (m *Multi) Contains(id moe.ExpertID) bool {
	_, ok := m.Owner(id)
	return ok
}

// Lookup reports residency on any device and updates statistics: a hit
// is attributed to the owning shard (whose policy is also touched), a
// miss to the home device the caller names — the device that would
// receive the transfer.
func (m *Multi) Lookup(id moe.ExpertID, home int) bool {
	for _, s := range m.shards {
		if s.Contains(id) {
			return s.Lookup(id)
		}
	}
	m.shards[home].misses++
	return false
}

// Insert makes id resident on device d (a no-op when it is already
// resident anywhere — experts are never replicated across shards),
// with Cache.Insert's eviction and guard semantics.
func (m *Multi) Insert(id moe.ExpertID, d int, g Guard) (evicted []moe.ExpertID, ok bool) {
	if _, resident := m.Owner(id); resident {
		return nil, true
	}
	return m.shards[d].Insert(id, g)
}

// Pin permanently places id, striping across shards round-robin. It
// reports whether any shard admitted it.
func (m *Multi) Pin(id moe.ExpertID) bool {
	if d, resident := m.Owner(id); resident {
		return m.shards[d].Pin(id)
	}
	for i := 0; i < len(m.shards); i++ {
		d := (m.cursor + i) % len(m.shards)
		if m.shards[d].Pin(id) {
			m.cursor = (d + 1) % len(m.shards)
			return true
		}
	}
	return false
}

// Warm fills the shards with ids round-robin (skipping residents,
// stopping when every shard is full) without counting statistics, and
// reports how many were admitted. With one shard this is exactly
// Cache.Warm.
func (m *Multi) Warm(ids []moe.ExpertID) int {
	n := 0
	for _, id := range ids {
		if m.Contains(id) {
			continue
		}
		admitted := false
		for i := 0; i < len(m.shards); i++ {
			d := (m.cursor + i) % len(m.shards)
			s := m.shards[d]
			if s.full() {
				continue
			}
			s.place(id)
			m.cursor = (d + 1) % len(m.shards)
			admitted = true
			n++
			break
		}
		if !admitted {
			break
		}
	}
	return n
}

// ObserveScores forwards one iteration's routing scores to every
// shard's policy (each shard ranks its own residents by them).
func (m *Multi) ObserveScores(layer int, scores []float64) {
	for _, s := range m.shards {
		s.ObserveScores(layer, scores)
	}
}

// TouchHistorical records a historical access in the owning shard's
// policy (the first shard's when id is resident nowhere), without
// touching residency or hit/miss statistics.
func (m *Multi) TouchHistorical(id moe.ExpertID) {
	d, _ := m.Owner(id)
	m.shards[d].TouchHistorical(id)
}

// Capacity reports the summed capacity across devices.
func (m *Multi) Capacity() int {
	total := 0
	for _, s := range m.shards {
		total += s.capacity
	}
	return total
}

// Len reports the summed resident count across devices.
func (m *Multi) Len() int {
	total := 0
	for _, s := range m.shards {
		total += s.Len()
	}
	return total
}

// Hits reports the summed lookup hits across devices.
func (m *Multi) Hits() int64 {
	var total int64
	for _, s := range m.shards {
		total += s.hits
	}
	return total
}

// Misses reports the summed lookup misses across devices.
func (m *Multi) Misses() int64 {
	var total int64
	for _, s := range m.shards {
		total += s.misses
	}
	return total
}
