package sim

import (
	"strings"
	"testing"
)

func TestTimelineZeroDurationNotRecorded(t *testing.T) {
	tl := NewTimeline("x")
	tl.Add(3, 3, "noop")
	if len(tl.Spans()) != 0 {
		t.Fatal("zero-duration spans should not be recorded")
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	tl := NewTimeline("x")
	defer func() {
		if recover() == nil {
			t.Fatal("a span ending before its start should panic")
		}
	}()
	tl.Add(1, 0, "bad")
}

func TestSpansAreCopies(t *testing.T) {
	tl := NewTimeline("x")
	tl.Add(0, 1, "a")
	spans := tl.Spans()
	spans[0].Name = "mutated"
	if tl.Spans()[0].Name != "a" {
		t.Fatal("Spans must return a copy")
	}
}

func TestGanttRendering(t *testing.T) {
	cpu := NewTimeline("CPU")
	gpu := NewTimeline("GPU")
	cpu.Add(0, 4, "A")
	gpu.Add(0, 2, "D")
	gpu.Add(2, 4, "C")
	out := Gantt(20, cpu, gpu)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[1], "D") {
		t.Fatalf("gantt missing span labels:\n%s", out)
	}
	// Each row trails with its latest span end.
	if !strings.HasSuffix(lines[0], "| 4s") || !strings.HasSuffix(lines[1], "| 4s") {
		t.Fatalf("gantt rows should end at 4s:\n%s", out)
	}
	if cpu.BusyTime() != 4 || gpu.BusyTime() != 4 {
		t.Fatalf("BusyTime = %v, %v, want 4, 4", cpu.BusyTime(), gpu.BusyTime())
	}
	if Gantt(20) != "" {
		t.Fatal("gantt of nothing should be empty")
	}
	empty := NewTimeline("e")
	if Gantt(20, empty) != "" {
		t.Fatal("gantt with zero horizon should be empty")
	}
}

func TestGanttDefaultWidth(t *testing.T) {
	tl := NewTimeline("CPU")
	tl.Add(0, 1, "A")
	out := Gantt(0, tl)
	if !strings.Contains(out, "A") {
		t.Fatalf("default-width gantt broken:\n%s", out)
	}
}
