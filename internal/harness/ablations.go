package harness

import (
	"fmt"
	"sync"

	"secmem/internal/config"
	"secmem/internal/reenc"
	"secmem/internal/stats"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out: how many RSRs the split scheme needs, how wide the minor
// counters should be, and how big the encryption page should be (the
// Section 4.1 block-size discussion). None of these is a paper figure; they
// probe the claims the paper makes in prose ("with a sufficient number of
// RSRs (e.g. 8) the situation does not occur", "little performance
// variation across different block sizes").

// stress shrinks the L2 so hot write sets thrash and minor counters
// actually overflow at campaign scale; counter overflow takes fractions of
// a simulated second on the paper machine (Table 2), far beyond any
// tractable run. The RSR machinery under test is unchanged.
func stress(cfg config.SystemConfig) config.SystemConfig {
	cfg.L2.SizeBytes = 128 << 10
	return cfg
}

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	Label       string
	NormIPC     float64
	PageReencs  uint64
	StallCycles uint64
	MeanCycles  float64
}

// sweep runs a set of split-counter variants and averages normalized IPC
// and re-encryption statistics over the campaign's benchmarks.
func (r *Runner) sweep(mk func() []config.SystemConfig, labels []string) []AblationRow {
	benches := r.Opt.benches()
	cfgs := mk()
	type job struct{ ci, bi int }
	var jobs []job
	for ci := range cfgs {
		for bi := range benches {
			jobs = append(jobs, job{ci, bi})
		}
	}
	// Per-job results, reduced in job order after the join so the float
	// averages do not depend on completion order.
	norms := make([]float64, len(jobs))
	rsrs := make([]reenc.Stats, len(jobs))
	// Normalize each configuration against an unprotected machine with the
	// SAME cache geometry, so stress-sized L2s don't masquerade as scheme
	// overhead.
	baseIPC := make(map[string]float64)
	var baseMu sync.Mutex
	baselineFor := func(bench string, cfg config.SystemConfig) float64 {
		key := fmt.Sprintf("%s/%d", bench, cfg.L2.SizeBytes)
		baseMu.Lock()
		v, ok := baseIPC[key]
		baseMu.Unlock()
		if ok {
			return v
		}
		b := config.Baseline()
		b.L2 = cfg.L2
		v = r.Run(bench, b).IPC
		baseMu.Lock()
		baseIPC[key] = v
		baseMu.Unlock()
		return v
	}
	r.parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		out := r.Run(benches[j.bi], cfgs[j.ci])
		norms[i] = out.IPC / baselineFor(benches[j.bi], cfgs[j.ci])
		rsrs[i] = out.RSR
	})
	ipcs := make([][]float64, len(cfgs))
	cycles := make([][]float64, len(cfgs))
	rows := make([]AblationRow, len(cfgs))
	for i, j := range jobs {
		ipcs[j.ci] = append(ipcs[j.ci], norms[i])
		rows[j.ci].PageReencs += rsrs[i].PageReencs
		rows[j.ci].StallCycles += uint64(rsrs[i].StallCycles)
		if rsrs[i].PageReencs > 0 {
			cycles[j.ci] = append(cycles[j.ci], rsrs[i].MeanCycles())
		}
	}
	for ci := range rows {
		rows[ci].Label = labels[ci]
		rows[ci].NormIPC = stats.Mean(ipcs[ci])
		rows[ci].MeanCycles = stats.Mean(cycles[ci])
	}
	return rows
}

func (r *Runner) ablationTable(title string, rows []AblationRow) stats.Table {
	tbl := stats.Table{
		Title: title,
		Cols:  []string{"config", "norm IPC", "page reencs", "stall cycles", "mean reenc cyc"},
	}
	for _, row := range rows {
		r.addRow(&tbl, row.Label, stats.F(row.NormIPC),
			fmt.Sprintf("%d", row.PageReencs),
			fmt.Sprintf("%d", row.StallCycles),
			fmt.Sprintf("%.0f", row.MeanCycles))
	}
	return tbl
}

// AblateRSRs sweeps the RSR count. The paper claims 8 registers suffice to
// never stall; fewer should show stall cycles appearing before IPC moves.
func (r *Runner) AblateRSRs() (stats.Table, []AblationRow) {
	counts := []int{1, 2, 4, 8, 16}
	labels := make([]string, len(counts))
	rows := r.sweep(func() []config.SystemConfig {
		var cfgs []config.SystemConfig
		for i, n := range counts {
			cfg := stress(EncOnly(config.EncCounterSplit, 64))
			cfg.MinorBits = 4 // frequent overflows stress the register file
			cfg.RSRs = n
			cfgs = append(cfgs, cfg)
			labels[i] = fmt.Sprintf("%d RSRs", n)
		}
		return cfgs
	}, labels)
	return r.ablationTable("Ablation: RSR count (split, 4-bit minors, 128KB-L2 stress)", rows), rows
}

// AblateMinorBits sweeps the minor counter width: smaller minors mean more
// frequent but individually cheap page re-encryptions; larger minors mean
// more counter storage. The paper settles on 7 bits (one byte of counters
// per 64-byte block including the major's share).
func (r *Runner) AblateMinorBits() (stats.Table, []AblationRow) {
	widths := []int{3, 4, 5, 6, 7, 8}
	labels := make([]string, len(widths))
	rows := r.sweep(func() []config.SystemConfig {
		var cfgs []config.SystemConfig
		for i, w := range widths {
			cfg := stress(EncOnly(config.EncCounterSplit, 64))
			cfg.MinorBits = w
			// Wide minors shrink the page so the major plus all minors
			// still pack into one 64-byte counter block (8-bit minors ->
			// 32-block pages).
			for 64+cfg.PageBlocks*w > 512 {
				cfg.PageBlocks /= 2
			}
			cfgs = append(cfgs, cfg)
			labels[i] = fmt.Sprintf("%d-bit minors (%d-block pages)", w, cfg.PageBlocks)
		}
		return cfgs
	}, labels)
	return r.ablationTable("Ablation: minor counter width (split, 128KB-L2 stress)", rows), rows
}

// AblatePageSize sweeps the encryption page size (Section 4.1: a 32-byte
// block organization gives 1 KB pages; the default is 4 KB). Smaller pages
// re-encrypt more often but each re-encryption touches fewer blocks; the
// paper reports "little performance variation".
func (r *Runner) AblatePageSize() (stats.Table, []AblationRow) {
	pages := []int{16, 32, 64, 128} // blocks per page: 1 KB .. 8 KB
	labels := make([]string, len(pages))
	rows := r.sweep(func() []config.SystemConfig {
		var cfgs []config.SystemConfig
		for i, pb := range pages {
			cfg := stress(EncOnly(config.EncCounterSplit, 64))
			cfg.PageBlocks = pb
			// The major and all minors must pack into one 64-byte counter
			// block, mirroring the paper's 32-byte-block example (one
			// 64-bit major plus 32 six-bit minors).
			if maxMinor := (512 - 64) / pb; cfg.MinorBits > maxMinor {
				cfg.MinorBits = maxMinor
			}
			cfgs = append(cfgs, cfg)
			labels[i] = fmt.Sprintf("%d KB pages (%d-bit minors)", pb*64/1024, cfg.MinorBits)
		}
		return cfgs
	}, labels)
	return r.ablationTable("Ablation: encryption page size (split, 128KB-L2 stress)", rows), rows
}

// AblateMacCache compares caching Merkle nodes in the shared L2 (the
// default) against a dedicated MAC cache, at the cost of extra SRAM. The
// paper observes that sharing "can result in significantly increased cache
// miss rates for data accesses"; a dedicated cache buys that back.
func (r *Runner) AblateMacCache() (stats.Table, []AblationRow) {
	sizes := []int{0, 16 << 10, 32 << 10, 64 << 10}
	labels := make([]string, len(sizes))
	rows := r.sweep(func() []config.SystemConfig {
		var cfgs []config.SystemConfig
		for i, sz := range sizes {
			cfg := Combined("Split+GCM")
			cfg.MacCacheBytes = sz
			cfgs = append(cfgs, cfg)
			if sz == 0 {
				labels[i] = "nodes in L2"
			} else {
				labels[i] = fmt.Sprintf("dedicated %dKB", sz>>10)
			}
		}
		return cfgs
	}, labels)
	return r.ablationTable("Ablation: Merkle node caching (Split+GCM)", rows), rows
}

// AblateMonoCharge quantifies what Figure 4 hides: Mono8b with whole-memory
// re-encryption actually charged (ChargeMonoReenc) versus the paper's
// zero-cost accounting, against split counters whose re-encryption is
// always fully simulated.
func (r *Runner) AblateMonoCharge() (stats.Table, []AblationRow) {
	labels := []string{"Mono8b (free re-enc)", "Mono8b (charged)", "Split (always charged)"}
	rows := r.sweep(func() []config.SystemConfig {
		free := stress(EncOnly(config.EncCounterMono, 8))
		charged := stress(EncOnly(config.EncCounterMono, 8))
		charged.ChargeMonoReenc = true
		split := stress(EncOnly(config.EncCounterSplit, 64))
		return []config.SystemConfig{free, charged, split}
	}, labels)
	return r.ablationTable("Ablation: charging whole-memory re-encryption (Mono8b, 128KB-L2 stress)", rows), rows
}
