// Command tracegen dumps synthetic MoE routing traces as CSV for
// external analysis — per-iteration activated experts and routing
// scores for decode, or per-expert token loads for prefill — and, in
// requests mode, emits a JSONL request trace (the workload
// WriteTrace/ReadTrace schema, optionally stamped with open-loop
// arrivals) that replays through `hybrimoe serve -trace-in`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args, validates them and writes the requested trace to
// stdout; flag usage and parse errors go to stderr. Split from main so
// tests drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "DeepSeek", "model name (DeepSeek, Mixtral, Qwen2)")
	mode := fs.String("mode", "decode", "decode, prefill or requests")
	iters := fs.Int("iters", 16, "decode iterations to dump")
	tokens := fs.Int("tokens", 128, "prefill tokens (prefill mode)")
	layer := fs.Int("layer", 0, "layer to dump")
	seed := fs.Uint64("seed", 2025, "trace seed")
	scores := fs.Bool("scores", false, "dump full score distribution instead of activations")
	requests := fs.Int("requests", 16, "requests to emit (requests mode)")
	arrivals := fs.String("arrivals", "poisson", "arrival process for requests mode: none, poisson, uniform, bursty")
	rate := fs.Float64("rate", 4, "mean arrival rate in req/s (requests mode)")
	decodeCap := fs.Int("decode-cap", 0, "cap on decode tokens per request, 0 = uncapped (requests mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	if *iters < 0 {
		return fmt.Errorf("-iters %d must be non-negative", *iters)
	}
	if *tokens < 1 {
		return fmt.Errorf("-tokens %d must be at least 1", *tokens)
	}
	if *mode == "requests" {
		return emitRequests(stdout, *seed, *requests, *arrivals, *rate, *decodeCap)
	}
	if *mode != "decode" && *mode != "prefill" {
		return fmt.Errorf("unknown mode %q (decode|prefill|requests)", *mode)
	}
	cfg, err := moe.ByName(*model)
	if err != nil {
		return err
	}
	if *layer < 0 || *layer >= cfg.Layers {
		return fmt.Errorf("layer %d out of range [0,%d)", *layer, cfg.Layers)
	}
	g := trace.New(cfg, trace.DefaultOptions(*seed))

	if *mode == "prefill" {
		g.Advance()
		loads := g.PrefillLoads(*layer, *tokens)
		fmt.Fprintln(stdout, "expert,load")
		for e, l := range loads {
			fmt.Fprintf(stdout, "%d,%d\n", e, l)
		}
		return nil
	}
	if *scores {
		header := make([]string, cfg.RoutedExperts)
		for e := range header {
			header[e] = fmt.Sprintf("e%d", e)
		}
		fmt.Fprintln(stdout, "iter,"+strings.Join(header, ","))
		for i := 0; i < *iters; i++ {
			g.Advance()
			ss := g.Scores(*layer)
			row := make([]string, len(ss))
			for e, s := range ss {
				row[e] = fmt.Sprintf("%.6f", s)
			}
			fmt.Fprintf(stdout, "%d,%s\n", i, strings.Join(row, ","))
		}
		return nil
	}
	fmt.Fprintln(stdout, "iter,activated")
	for i := 0; i < *iters; i++ {
		g.Advance()
		acts := g.Activated(*layer)
		parts := make([]string, len(acts))
		for j, e := range acts {
			parts[j] = fmt.Sprint(e)
		}
		fmt.Fprintf(stdout, "%d,%s\n", i, strings.Join(parts, " "))
	}
	return nil
}

// emitRequests writes a JSONL request trace to w: the mixed-corpus
// workload stream, optionally stamped with open-loop arrival times, in
// the exact schema `hybrimoe serve -trace-in` replays.
func emitRequests(w io.Writer, seed uint64, requests int, arrivals string, rate float64, decodeCap int) error {
	if requests < 1 {
		return fmt.Errorf("-requests %d must be at least 1", requests)
	}
	if decodeCap < 0 {
		return fmt.Errorf("-decode-cap %d must be non-negative", decodeCap)
	}
	stream := workload.NewStream(seed, workload.AllDatasets()...)
	if arrivals != "none" {
		proc, err := workload.NewArrivals(arrivals, rate)
		if err != nil {
			return err
		}
		stream.WithArrivals(proc)
	}
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, decodeCap)
	return workload.WriteTrace(w, reqs)
}
