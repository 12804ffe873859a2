package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Span records one operation executed on a timeline.
type Span struct {
	Name  string
	Start float64
	End   float64
}

// Duration reports the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// Timeline records the work executed on one exclusive resource (a CPU
// pool, the GPU, the PCIe link) as spans, for trace inspection and
// utilisation accounting. The caller owns the resource's busy frontier
// and books each span at the start it computed from it.
type Timeline struct {
	Name  string
	spans []Span
}

// NewTimeline returns an empty timeline.
func NewTimeline(name string) *Timeline {
	return &Timeline{Name: name}
}

// Add records the span [start, end). An empty span records nothing, and
// end < start panics.
func (t *Timeline) Add(start, end float64, name string) {
	if end < start {
		panic(fmt.Sprintf("sim: span %q ends at %v before its start %v", name, end, start))
	}
	if end > start {
		t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
	}
}

// Spans returns the recorded spans in the order they were added.
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// BusyTime reports the total recorded seconds.
func (t *Timeline) BusyTime() float64 {
	var sum float64
	for _, s := range t.spans {
		sum += s.Duration()
	}
	return sum
}

// end reports the latest span end, 0 for an empty timeline.
func (t *Timeline) end() float64 {
	var end float64
	for _, s := range t.spans {
		end = max(end, s.End)
	}
	return end
}

// Gantt renders the spans of several timelines as aligned text rows, one
// row per timeline, for experiment logs and debugging. width is the
// number of character cells used for the longest horizon.
func Gantt(width int, timelines ...*Timeline) string {
	if width <= 0 {
		width = 60
	}
	var horizon float64
	for _, tl := range timelines {
		horizon = max(horizon, tl.end())
	}
	if horizon == 0 {
		return ""
	}
	var sb strings.Builder
	for _, tl := range timelines {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = '.'
		}
		spans := tl.Spans()
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			lo := int(s.Start / horizon * float64(width))
			hi := int(s.End / horizon * float64(width))
			if hi == lo {
				hi = lo + 1
			}
			label := byte('#')
			if len(s.Name) > 0 {
				label = s.Name[0]
			}
			for i := lo; i < hi && i < width; i++ {
				cells[i] = label
			}
		}
		fmt.Fprintf(&sb, "%-6s |%s| %.4gs\n", tl.Name, string(cells), tl.end())
	}
	return sb.String()
}
