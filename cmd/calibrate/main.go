// Command calibrate runs the warm-up phase on the host machine: it
// times the real GatedFFN CPU kernels from internal/tensor across batch
// sizes, fits the linear cost model HybriMoE's scheduler consumes, and
// prints the fitted platform description next to the A6000 preset.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hybrimoe/internal/hw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

// run parses args, validates them and executes the calibration, writing
// the report to w. Split from main so tests drive it directly.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	hidden := fs.Int("hidden", 256, "expert hidden width for the probe kernel")
	inter := fs.Int("inter", 512, "expert intermediate width for the probe kernel")
	reps := fs.Int("reps", 3, "timing repetitions per batch size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hidden < 1 {
		return fmt.Errorf("-hidden %d must be at least 1", *hidden)
	}
	if *inter < 1 {
		return fmt.Errorf("-inter %d must be at least 1", *inter)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", *reps)
	}

	fmt.Fprintf(w, "calibrating CPU model on %dx%d expert kernels...\n", *hidden, *inter)
	res, err := hw.CalibrateCPU(*hidden, *inter, []int{4, 8, 16, 32, 64, 128}, *reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measured throughput : %.3g FLOP/s\n", res.FlopsPerSec)
	fmt.Fprintf(w, "warm-up penalty     : %.3gs\n", res.WarmupPenalty)
	fmt.Fprintf(w, "linear fit          : %v\n", res.Fit)
	fmt.Fprintf(w, "samples             : %d\n\n", res.Samples)

	preset := hw.A6000Platform()
	fitted := res.ApplyToCPU(preset.CPU)
	fmt.Fprintln(w, "platform CPU models:")
	fmt.Fprintf(w, "  preset (%s): peak %.3g FLOP/s, membw %.3g B/s, warmup %.3gs\n",
		preset.CPU.Name, preset.CPU.PeakFlops, preset.CPU.MemBandwidth, preset.CPU.WarmupPenalty)
	fmt.Fprintf(w, "  fitted (%s): peak %.3g FLOP/s, membw %.3g B/s, warmup %.3gs\n",
		fitted.Name, fitted.PeakFlops, fitted.MemBandwidth, fitted.WarmupPenalty)
	fmt.Fprintln(w, "\nNote: the probe kernel is scalar Go; production INT4 kernels are")
	fmt.Fprintln(w, "an order of magnitude faster. Experiments use the preset models so")
	fmt.Fprintln(w, "results are machine-independent; pass the fitted platform to")
	fmt.Fprintln(w, "engine.New to simulate this host instead.")
	return nil
}
