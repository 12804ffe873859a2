package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// traceRecord is the JSONL schema of one recorded request — one object
// per line, zero-valued optional fields omitted, so a trace written by
// WriteTrace reads back through ReadTrace (and re-writes byte-for-byte,
// the property the CI replay smoke job pins):
//
//	{"id":0,"dataset":"mt-bench","prompt_tokens":57,"decode_tokens":12,
//	 "priority":1,"deadline":2.5,"arrival":0.131}
type traceRecord struct {
	ID           int     `json:"id"`
	Dataset      string  `json:"dataset,omitempty"`
	PromptTokens int     `json:"prompt_tokens,omitempty"`
	DecodeTokens int     `json:"decode_tokens,omitempty"`
	Priority     int     `json:"priority,omitempty"`
	Class        string  `json:"class,omitempty"`
	Deadline     float64 `json:"deadline,omitempty"`
	Arrival      float64 `json:"arrival,omitempty"`
	// Checkpoint serialises a prefilled request's migrated state; absent
	// for fresh requests, so pre-existing traces are unchanged on disk.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// WriteTrace records a request sequence as JSONL, one request per line
// in slice order. Together with ReadTrace it round-trips exactly, so
// recorded (or production-shaped) workloads replay through the same
// Session loop synthetic streams use.
func WriteTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range reqs {
		rec := traceRecord{
			ID:           r.ID,
			Dataset:      r.Dataset,
			PromptTokens: r.PromptTokens,
			DecodeTokens: r.DecodeTokens,
			Priority:     r.Priority,
			Class:        r.Class,
			Deadline:     r.Deadline,
			Arrival:      r.Arrival,
			Checkpoint:   r.Checkpoint,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("workload: writing trace record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL request trace written by WriteTrace (or by
// any external recorder emitting the same schema). Blank lines and
// #-comment lines are skipped. Malformed JSON and requests with no work
// at all (neither prompt nor decode tokens) are reported with their
// line number — a zero-work record is always a recording bug, and the
// Session would drop it silently otherwise.
func ReadTrace(r io.Reader) ([]Request, error) {
	var reqs []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rec traceRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if rec.PromptTokens < 0 || rec.DecodeTokens < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative token counts (prompt %d, decode %d)",
				line, rec.PromptTokens, rec.DecodeTokens)
		}
		if rec.PromptTokens == 0 && rec.DecodeTokens == 0 {
			return nil, fmt.Errorf("workload: trace line %d: request %d carries no work", line, rec.ID)
		}
		if rec.Deadline < 0 || rec.Arrival < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative deadline %v or arrival %v",
				line, rec.Deadline, rec.Arrival)
		}
		if rec.Checkpoint != nil {
			if err := rec.Checkpoint.Validate(); err != nil {
				return nil, fmt.Errorf("trace line %d: %w", line, err)
			}
			if len(rec.Checkpoint.Experts) == 0 {
				// WriteTrace omits an empty expert list, so "experts":[]
				// reads as no list at all and the trace round-trips.
				rec.Checkpoint.Experts = nil
			}
		}
		reqs = append(reqs, Request{
			ID:           rec.ID,
			Dataset:      rec.Dataset,
			PromptTokens: rec.PromptTokens,
			DecodeTokens: rec.DecodeTokens,
			Priority:     rec.Priority,
			Class:        rec.Class,
			Deadline:     rec.Deadline,
			Arrival:      rec.Arrival,
			Checkpoint:   rec.Checkpoint,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	return reqs, nil
}
