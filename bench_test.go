// Package secmem_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation as a Go benchmark. Each
// BenchmarkFigN/BenchmarkTableN runs the corresponding experiment over a
// reduced campaign (three representative workloads, short runs) and reports
// the figure's headline metrics via b.ReportMetric; cmd/paperbench runs the
// same experiments over the full 21-benchmark suite with longer runs.
//
// The reported custom metrics are normalized-IPC values (baseline = 1.0),
// so "Split_normIPC: 0.95" reads directly against the paper's bars.
package secmem_test

import (
	"strings"
	"testing"

	"secmem/internal/config"
	"secmem/internal/harness"
)

// benchOpts is the reduced campaign used by the benchmark harness.
func benchOpts() harness.Options {
	return harness.Options{
		Instructions: 500_000,
		Seed:         1,
		Benches:      []string{"swim", "mcf", "crafty"},
	}
}

func reportAvg(b *testing.B, data harness.FigData, schemes ...string) {
	b.Helper()
	clean := strings.NewReplacer(" ", "", "(", "", ")", "", "-", "")
	for _, s := range schemes {
		b.ReportMetric(data[s]["Avg"], clean.Replace(s)+"_normIPC")
	}
}

// BenchmarkFig4 regenerates Figure 4: normalized IPC of the six memory
// encryption schemes with no authentication.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig4()
		if i == b.N-1 {
			reportAvg(b, data, "Split", "Mono8b", "Mono64b", "Direct")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: counter growth rates and time to
// overflow. The reported metric is the average estimated seconds to
// overflow for 8-bit monolithic counters (the paper: ~0.4 s).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, overflow := r.Table2()
		if i == b.N-1 {
			b.ReportMetric(overflow["Mono8b"]["Avg"], "mono8_overflow_s")
			b.ReportMetric(overflow["Global32b"]["Avg"], "global32_overflow_s")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: counter cache size sensitivity.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig5()
		if i == b.N-1 {
			reportAvg(b, data, "split 16KB", "split 128KB", "mono 16KB", "mono 128KB")
		}
	}
}

// BenchmarkFig6a regenerates Figure 6(a): split counters versus the
// counter-prediction baseline.
func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, res := r.Fig6a()
		if i == b.N-1 {
			b.ReportMetric(res.SNCHit, "snc_hit")
			b.ReportMetric(res.PredRate, "pred_rate")
			b.ReportMetric(res.IPCSplit, "split_normIPC")
			b.ReportMetric(res.IPCPred2Engine, "pred2eng_normIPC")
		}
	}
}

// BenchmarkFig6b regenerates Figure 6(b): the prediction-rate trend.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, series := r.Fig6b(5)
		if i == b.N-1 {
			b.ReportMetric(series[0][1], "pred_rate_w1")
			b.ReportMetric(series[len(series)-1][1], "pred_rate_w5")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: GCM versus SHA-1 authentication.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig7()
		if i == b.N-1 {
			reportAvg(b, data, "GCM", "SHA-1 (80)", "SHA-1 (320)", "SHA-1 (640)")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: authentication requirements and
// parallel tree authentication.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig8()
		if i == b.N-1 {
			reportAvg(b, data, "GCM lazy", "GCM safe", "SHA lazy", "SHA safe")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: the five combined schemes.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig9()
		if i == b.N-1 {
			reportAvg(b, data, harness.CombinedNames()...)
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: sensitivity of the combined
// schemes (requirements, parallelism, MAC sizes).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(benchOpts())
		_, data := r.Fig10()
		if i == b.N-1 {
			b.ReportMetric(data["Split+GCM/safe"]["Avg"], "SplitGCM_safe_normIPC")
			b.ReportMetric(data["Mono+SHA/safe"]["Avg"], "MonoSHA_safe_normIPC")
			b.ReportMetric(data["Split+GCM/mac32"]["Avg"], "SplitGCM_mac32_normIPC")
		}
	}
}

// BenchmarkReencScalars regenerates the Section 6.1 page re-encryption
// scalars (48% of blocks on-chip, mean re-encryption cycles, work ratio).
func BenchmarkReencScalars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts()
		opt.Benches = []string{"twolf", "equake", "applu"}
		r := harness.New(opt)
		_, res := r.Scalars()
		if i == b.N-1 {
			b.ReportMetric(res.OnChipFraction, "onchip_fraction")
			b.ReportMetric(res.MeanReencCycles, "mean_reenc_cycles")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per second for the paper's default protected configuration.
// Each iteration simulates through RunObserved, which bypasses the run
// cache that Run would answer every iteration after the first from.
func BenchmarkSimulatorThroughput(b *testing.B) {
	r := harness.New(harness.Options{Instructions: 1_000_000, Seed: 1})
	cfg := config.Default()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		out := r.RunObserved("swim", cfg, harness.Obs{})
		instr += out.CPU.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim_instr/s")
}
