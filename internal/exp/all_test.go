package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRunAllQuickGolden pins every registered experiment's rendered
// output at the quick parameters — what `hybrimoe all -quick` prints —
// byte for byte. Refactors of the drivers and folds behind the tables
// must leave it unchanged. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/exp -run TestRunAllQuickGolden
// and review the diff like any other code change.
func TestRunAllQuickGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full quick run is too slow under -race; the race job drives studies directly")
	}
	if testing.Short() {
		t.Skip("full quick run skipped in -short mode")
	}
	var buf bytes.Buffer
	RunAll(&buf, QuickParams())
	path := filepath.Join("testdata", "all-quick.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if diff := diffLines(want, buf.Bytes()); diff != "" {
		t.Fatalf("quick run drifted from %s:\n%s", path, diff)
	}
}

// diffLines describes the first line where two outputs diverge; ""
// means byte-identical.
func diffLines(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return fmt.Sprintf("outputs differ in length only: golden %d lines, got %d",
		len(wantLines), len(gotLines))
}
