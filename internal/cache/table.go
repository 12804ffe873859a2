package cache

import "hybrimoe/internal/moe"

// table holds per-expert state densely, indexed [layer][index] and grown
// on demand, so the hot paths (residency checks, victim scans, score
// updates) cost a bounds check instead of a map lookup. The zero value
// of T means absent: reading an expert never stored yields it, and
// storing it is how an entry is cleared. Policies get no model
// dimensions, so rows size themselves from the IDs they see.
type table[T any] struct {
	rows [][]T
}

// get reports id's entry, or the zero value when none was stored.
func (t *table[T]) get(id moe.ExpertID) T {
	if id.Layer >= 0 && id.Layer < len(t.rows) {
		if row := t.rows[id.Layer]; id.Index >= 0 && id.Index < len(row) {
			return row[id.Index]
		}
	}
	var zero T
	return zero
}

// set stores v as id's entry, growing the table to reach it.
func (t *table[T]) set(id moe.ExpertID, v T) {
	t.row(id.Layer, id.Index+1)[id.Index] = v
}

// row returns a layer's entries, grown to at least n of them. Writes
// through it are writes to the table.
func (t *table[T]) row(layer, n int) []T {
	for len(t.rows) <= layer {
		t.rows = append(t.rows, nil)
	}
	if r := t.rows[layer]; len(r) < n {
		t.rows[layer] = append(r, make([]T, n-len(r))...)
	}
	return t.rows[layer]
}
