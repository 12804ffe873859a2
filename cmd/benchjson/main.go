// Command benchjson converts `go test -bench` text output into JSON so
// CI can archive one machine-readable benchmark snapshot per commit
// (BENCH_<sha>.json artifacts) and the performance trajectory can be
// diffed across PRs — and diffs two such snapshots as the bench-trend
// gate.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem ./... | benchjson -out BENCH_abc123.json
//	benchjson -diff [-threshold 15] OLD.json NEW.json
//
// Flags:
//
//	-in FILE       read benchmark text from FILE instead of stdin
//	-out FILE      write output to FILE instead of stdout
//	-diff          compare two snapshots instead of converting text
//	-threshold PCT regression threshold percent for -diff (default 15)
//
// Every `BenchmarkX  N  <value> <unit> ...` line becomes one record
// keeping all its metrics (ns/op, B/op, allocs/op and any custom
// b.ReportMetric units like speedup-vs-ktrans). The run's goos/goarch/
// cpu header is preserved, and each record remembers the package whose
// header preceded it. Exits non-zero when no benchmark line is found,
// so a silently-empty artifact fails the job instead of uploading.
//
// In -diff mode the two snapshots are matched per benchmark (GOMAXPROCS
// name suffixes stripped, so runs from differently-sized runners still
// pair up) and compared on the gated units — ns/op, allocs/op and every
// custom ReportMetric unit; B/op and MB/s ride along in artifacts but
// are too noisy at -benchtime=1x to gate on (allocation *counts* are a
// property of the code path, near-deterministic on this repo's seeded
// workloads, so allocs/op gates like ns/op and catches allocation
// regressions on the hot paths). Units ending in "/op" regress upward,
// all others (speedups, hit-rate gains, throughputs) regress downward. The result is a markdown table (pipe it into
// $GITHUB_STEP_SUMMARY) and the exit status is 1 when any benchmark
// moved beyond the threshold in its bad direction, so the CI job fails
// exactly on a real trend break.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Output is the artifact schema.
type Output struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	Pkg  string `json:"pkg,omitempty"`
	Name string `json:"name"`
	Runs int64  `json:"runs"`
	// Metrics maps unit → value for every pair on the line:
	// ns/op, B/op, allocs/op, MB/s and custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	in := flag.String("in", "", "read benchmark text from this file instead of stdin")
	out := flag.String("out", "", "write output to this file instead of stdout")
	diffMode := flag.Bool("diff", false, "compare two snapshot files: benchjson -diff [-threshold PCT] OLD.json NEW.json")
	threshold := flag.Float64("threshold", 15, "regression threshold percent for -diff")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err.Error())
		}
		defer f.Close()
		w = f
	}

	if *diffMode {
		if flag.NArg() != 2 {
			fatal(fmt.Sprintf("-diff wants exactly two snapshot files, got %v", flag.Args()))
		}
		if *threshold <= 0 {
			fatal(fmt.Sprintf("-threshold %v must be positive", *threshold))
		}
		oldO, err := load(flag.Arg(0))
		if err != nil {
			fatal(err.Error())
		}
		newO, err := load(flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		table, regressions := diff(oldO, newO, *threshold)
		fmt.Fprint(w, table)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark metric(s) regressed beyond %.4g%%\n",
				regressions, *threshold)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() > 0 {
		fatal(fmt.Sprintf("unexpected arguments %v (want -in FILE, -out FILE)", flag.Args()))
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err.Error())
		}
		defer f.Close()
		r = f
	}
	o, err := parse(r)
	if err != nil {
		fatal(err.Error())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o); err != nil {
		fatal(err.Error())
	}
}

// load reads one archived snapshot.
func load(path string) (Output, error) {
	f, err := os.Open(path)
	if err != nil {
		return Output{}, err
	}
	defer f.Close()
	var o Output
	if err := json.NewDecoder(f).Decode(&o); err != nil {
		return Output{}, fmt.Errorf("%s: %v", path, err)
	}
	return o, nil
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchjson:", msg)
	os.Exit(1)
}

// parse reads `go test -bench` text output and extracts every benchmark
// record plus the environment header. It errors when no benchmark line
// is present, and when a result line carries a NaN or infinite value,
// which JSON cannot encode.
func parse(r io.Reader) (Output, error) {
	var o Output
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			o.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			o.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			o.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return Output{}, err
			}
			if !ok {
				continue
			}
			b.Pkg = pkg
			o.Benchmarks = append(o.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return Output{}, err
	}
	if len(o.Benchmarks) == 0 {
		return Output{}, fmt.Errorf("no benchmark result lines found in input")
	}
	return o, nil
}

// benchKey pairs a benchmark across snapshots: package plus name with
// the trailing GOMAXPROCS suffix ("-8") stripped, so the same benchmark
// from differently-sized CI runners still matches.
func benchKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Pkg + " " + name
}

// gated reports whether a unit participates in the trend gate: ns/op,
// allocs/op and every custom ReportMetric unit. B/op and MB/s are
// archived but not gated — byte counts and throughput of a
// -benchtime=1x smoke run gate on noise, not trends, while allocation
// counts are near-deterministic on seeded workloads and catch hot-path
// allocation regressions the way ns/op catches slowdowns.
func gated(unit string) bool {
	switch unit {
	case "B/op", "MB/s":
		return false
	}
	return true
}

// lowerIsBetterOverrides lists custom units whose bad direction the
// suffix rule below would get wrong: cost ratios that do not end in
// "/op" but still regress upward. greedy/optimal is the scheduler
// quality benchmark's makespan ratio (≥ 1, optimal = 1).
var lowerIsBetterOverrides = map[string]bool{
	"greedy/optimal": true,
}

// lowerIsBetter reports a unit's bad direction: per-op costs and the
// listed cost ratios regress upward; every other gated unit (speedups,
// hit-rate gains, simulated throughputs) regresses downward.
func lowerIsBetter(unit string) bool {
	return lowerIsBetterOverrides[unit] || strings.HasSuffix(unit, "/op")
}

// diff compares two snapshots on the gated units and renders a markdown
// table (one row per benchmark × unit, regressions first-class) plus a
// summary line, returning it with the number of regressed metrics. A
// metric regresses when it moves more than threshold percent in its bad
// direction; benchmarks present in only one snapshot are listed as
// new/removed but never regress — renames must not fail the gate.
// Matching is by exact package+name first; the GOMAXPROCS-stripped key
// is only a fallback, and only when it is unambiguous, so sub-benchmark
// names ending in digits can never be silently cross-paired.
func diff(oldO, newO Output, threshold float64) (string, int) {
	oldExact := make(map[string]Benchmark, len(oldO.Benchmarks))
	oldStripped := make(map[string][]string, len(oldO.Benchmarks))
	for _, b := range oldO.Benchmarks {
		exact := b.Pkg + " " + b.Name
		oldExact[exact] = b
		oldStripped[benchKey(b)] = append(oldStripped[benchKey(b)], exact)
	}
	matched := make(map[string]bool, len(oldO.Benchmarks))

	var sb strings.Builder
	sb.WriteString("## Benchmark trend vs parent\n\n")
	fmt.Fprintf(&sb, "Gate: ns/op, allocs/op and custom units, threshold %.4g%%.\n\n", threshold)
	sb.WriteString("| benchmark | unit | old | new | Δ | status |\n")
	sb.WriteString("|---|---|---:|---:|---:|---|\n")

	regressions, compared := 0, 0
	for _, nb := range newO.Benchmarks {
		key := nb.Pkg + " " + nb.Name
		ob, ok := oldExact[key]
		if ok {
			matched[key] = true
		} else if cands := oldStripped[benchKey(nb)]; len(cands) == 1 && !matched[cands[0]] {
			ob, ok = oldExact[cands[0]], true
			matched[cands[0]] = true
		}
		if !ok {
			fmt.Fprintf(&sb, "| %s | — | — | — | — | new |\n", key)
			continue
		}
		for _, unit := range sortedUnits(nb.Metrics) {
			if !gated(unit) {
				continue
			}
			nv := nb.Metrics[unit]
			ov, ok := ob.Metrics[unit]
			if !ok {
				fmt.Fprintf(&sb, "| %s | %s | — | %.6g | — | new metric |\n", key, unit, nv)
				continue
			}
			if ov == 0 {
				fmt.Fprintf(&sb, "| %s | %s | 0 | %.6g | — | incomparable |\n", key, unit, nv)
				continue
			}
			compared++
			delta := 100 * (nv - ov) / ov
			bad := delta
			if !lowerIsBetter(unit) {
				bad = -delta
			}
			status := "ok"
			switch {
			case bad > threshold:
				status = "**regressed**"
				regressions++
			case bad < -threshold:
				status = "improved"
			}
			fmt.Fprintf(&sb, "| %s | %s | %.6g | %.6g | %+.1f%% | %s |\n", key, unit, ov, nv, delta, status)
		}
	}
	for _, ob := range oldO.Benchmarks {
		if !matched[ob.Pkg+" "+ob.Name] {
			fmt.Fprintf(&sb, "| %s | — | — | — | — | removed |\n", ob.Pkg+" "+ob.Name)
		}
	}
	fmt.Fprintf(&sb, "\n%d metric(s) compared, %d regressed.\n", compared, regressions)
	return sb.String(), regressions
}

// sortedUnits orders a record's metric units deterministically.
func sortedUnits(metrics map[string]float64) []string {
	units := make([]string, 0, len(metrics))
	for u := range metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

// parseLine splits one result line: name, run count, then value/unit
// pairs. Lines that do not fit the shape (e.g. a benchmark name echoed
// without results) are skipped (ok false); a line that fits but holds a
// NaN or infinite value is an error quoting the line.
func parseLine(line string) (b Benchmark, ok bool, err error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b = Benchmark{Name: fields[0], Runs: runs, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, nil
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Benchmark{}, false, fmt.Errorf("benchmark line %q: %s value %s is not finite", line, fields[i+1], fields[i])
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true, nil
}
