package engine

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteEventLog serialises an event stream (engine StepEvents or fleet
// cluster.Events) as JSONL — one JSON object per event, fields in
// declaration order, no extra whitespace. The encoding is byte-stable
// for identical streams (encoding/json emits struct fields in order and
// shortest-round-trip floats), which is what the golden-scenario harness
// diffs: a committed golden file re-compared against a re-run catches
// any drift in either the event schema or the simulation that feeds it.
func WriteEventLog[E any](w io.Writer, events []E) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		// Encode appends the newline that terminates each record.
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
