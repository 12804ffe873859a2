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

// Timeline serialises work on one exclusive resource (a CPU pool, the
// GPU, the PCIe link). Work items are appended back-to-back: a
// reservation starts at max(readyAt, busyUntil). Spans are recorded for
// trace inspection and utilisation accounting.
type Timeline struct {
	Name      string
	busyUntil float64
	spans     []Span
	record    bool
}

// NewTimeline returns an empty timeline that records spans.
func NewTimeline(name string) *Timeline {
	return &Timeline{Name: name, record: true}
}

// NewTimelineNoTrace returns a timeline that skips span recording; the
// scheduler's inner simulation loop uses this to avoid allocation.
func NewTimelineNoTrace(name string) *Timeline {
	return &Timeline{Name: name}
}

// BusyUntil reports when the resource frees up.
func (t *Timeline) BusyUntil() float64 { return t.busyUntil }

// Reserve books dur seconds of exclusive time, starting no earlier than
// readyAt, and returns the [start, end) interval. A negative duration
// panics.
func (t *Timeline) Reserve(readyAt, dur float64, name string) (start, end float64) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v for %q", dur, name))
	}
	start = t.busyUntil
	if readyAt > start {
		start = readyAt
	}
	end = start + dur
	t.busyUntil = end
	if t.record && dur > 0 {
		t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
	}
	return start, end
}

// Spans returns the recorded spans in execution order.
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// BusyTime reports total reserved seconds.
func (t *Timeline) BusyTime() float64 {
	var sum float64
	for _, s := range t.spans {
		sum += s.Duration()
	}
	return sum
}

// Reset clears reservations and spans, rewinding the busy frontier to
// zero. Span storage is retained (truncated, not freed), so a timeline
// reused across runs reaches a steady state where recording allocates
// nothing.
func (t *Timeline) Reset() {
	t.busyUntil = 0
	t.spans = t.spans[:0]
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
		if tl.busyUntil > horizon {
			horizon = tl.busyUntil
		}
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
		fmt.Fprintf(&sb, "%-6s |%s| %.4gs\n", tl.Name, string(cells), tl.busyUntil)
	}
	return sb.String()
}
