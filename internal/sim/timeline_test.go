package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimelineReserveSequencing(t *testing.T) {
	tl := NewTimeline("GPU")
	s1, e1 := tl.Reserve(0, 2, "a")
	if s1 != 0 || e1 != 2 {
		t.Fatalf("first reserve [%v,%v), want [0,2)", s1, e1)
	}
	// Ready before the resource frees: starts at busyUntil.
	s2, e2 := tl.Reserve(1, 3, "b")
	if s2 != 2 || e2 != 5 {
		t.Fatalf("second reserve [%v,%v), want [2,5)", s2, e2)
	}
	// Ready after the resource frees: idle gap allowed.
	s3, e3 := tl.Reserve(10, 1, "c")
	if s3 != 10 || e3 != 11 {
		t.Fatalf("third reserve [%v,%v), want [10,11)", s3, e3)
	}
	if tl.BusyUntil() != 11 {
		t.Fatalf("BusyUntil = %v, want 11", tl.BusyUntil())
	}
	if tl.BusyTime() != 6 {
		t.Fatalf("BusyTime = %v, want 6", tl.BusyTime())
	}
}

func TestTimelineZeroDurationNotRecorded(t *testing.T) {
	tl := NewTimeline("x")
	tl.Reserve(0, 0, "noop")
	if len(tl.Spans()) != 0 {
		t.Fatal("zero-duration reservations should not record spans")
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	tl := NewTimeline("x")
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration should panic")
		}
	}()
	tl.Reserve(0, -1, "bad")
}

func TestTimelineReset(t *testing.T) {
	tl := NewTimeline("x")
	tl.Reserve(0, 5, "a")
	tl.Reset()
	if tl.BusyUntil() != 0 || len(tl.Spans()) != 0 {
		t.Fatal("Reset must clear state")
	}
}

func TestTimelineNoTraceSkipsSpans(t *testing.T) {
	tl := NewTimelineNoTrace("fast")
	tl.Reserve(0, 5, "a")
	if len(tl.Spans()) != 0 {
		t.Fatal("no-trace timeline should not record spans")
	}
	if tl.BusyUntil() != 5 {
		t.Fatal("no-trace timeline must still track busy time")
	}
}

func TestSpansAreCopies(t *testing.T) {
	tl := NewTimeline("x")
	tl.Reserve(0, 1, "a")
	spans := tl.Spans()
	spans[0].Name = "mutated"
	if tl.Spans()[0].Name != "a" {
		t.Fatal("Spans must return a copy")
	}
}

// Property: reservations never overlap and never start before readyAt.
func TestTimelineNoOverlapQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		tl := NewTimeline("q")
		var prevEnd float64
		for i, r := range raw {
			ready := float64(r%16) * 0.5
			dur := float64(r%7) * 0.25
			s, e := tl.Reserve(ready, dur, "op")
			if s < ready || s < prevEnd || e != s+dur {
				return false
			}
			prevEnd = e
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGanttRendering(t *testing.T) {
	cpu := NewTimeline("CPU")
	gpu := NewTimeline("GPU")
	cpu.Reserve(0, 4, "A")
	gpu.Reserve(0, 2, "D")
	gpu.Reserve(2, 2, "C")
	out := Gantt(20, cpu, gpu)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[1], "D") {
		t.Fatalf("gantt missing span labels:\n%s", out)
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
	tl.Reserve(0, 1, "A")
	out := Gantt(0, tl)
	if !strings.Contains(out, "A") {
		t.Fatalf("default-width gantt broken:\n%s", out)
	}
}
