package exp

import (
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/quant"
	"hybrimoe/internal/report"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

// precisionStudy quantifies the mixed-precision offloading trade-off
// (HOBBIT-style, which the paper cites as related work): per model,
// the INT4 vs INT8 expert footprint and PCIe transfer time, alongside
// the *measured* numeric fidelity of the two kernel paths on a real
// matrix-vector product. Transferring an expert at INT8 costs ~2× the
// link time but roughly 16× lower reconstruction error — the knob a
// mixed-precision loader trades per expert importance. The fidelity
// probe runs serially, then one cell per model computes its
// footprint/transfer row.
func precisionStudy(p Params) *report.Table {
	link := hw.A6000Platform().Links[0]

	// Measured fidelity on a probe expert (scaled, real kernels).
	rng := stats.NewRNG(p.Seed)
	probe := tensor.NewMatrix(128, 512)
	probe.FillRandom(rng)
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	q4 := quant.Quantize(probe, 4, quant.DefaultGroupSize)
	q8 := quant.Quantize(probe, 8, quant.DefaultGroupSize)
	f4 := quant.MeasureFidelity(probe, q4.MatVec, x)
	f8 := quant.MeasureFidelity(probe, q8.MatVec, x)

	var cells []Cell
	for _, cfg := range moe.AllModels() {
		cells = append(cells, func() []Row {
			int4 := cfg.ExpertBytes()
			int8 := moe.FFNBytes(cfg.Hidden, cfg.Intermediate, 8)
			return []Row{{cfg.Name,
				float64(int4) / (1 << 20), float64(int8) / (1 << 20),
				1e3 * link.TransferTime(int4), 1e3 * link.TransferTime(int8),
				f4.RelL2Error, f8.RelL2Error}}
		})
	}
	return tableFromCells("Extension: INT4 vs INT8 expert offloading trade-off",
		[]string{"model", "int4-bytes(MB)", "int8-bytes(MB)", "int4-xfer(ms)", "int8-xfer(ms)",
			"int4-relL2", "int8-relL2"}, runCells(p, cells))
}
