// Command secmemtrace records, inspects, and replays workload traces in the
// secmem trace format. Recording a trace freezes a workload exactly: the
// same file replays bit-identically across simulator versions and machines,
// and external traces converted into the format run through the same
// pipeline as the built-in SPEC 2000-like profiles.
//
//	secmemtrace -record -bench mcf -n 2000000 -o mcf.smtr
//	secmemtrace -stats -i mcf.smtr
//	secmemtrace -sim -i mcf.smtr -enc split -auth gcm
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/trace"
)

func main() {
	var (
		record = flag.Bool("record", false, "record a synthetic workload to a trace file")
		stats  = flag.Bool("stats", false, "summarize a trace file")
		sim    = flag.Bool("sim", false, "simulate a trace file")
		bench  = flag.String("bench", "mcf", "profile to record")
		n      = flag.Uint64("n", 1_000_000, "memory events to record or scan")
		seed   = flag.Int64("seed", 1, "generator seed for -record")
		in     = flag.String("i", "", "input trace file")
		out    = flag.String("o", "", "output trace file for -record")
		enc    = flag.String("enc", "split", "encryption for -sim: none|direct|mono|split|global")
		auth   = flag.String("auth", "gcm", "authentication for -sim: none|sha|gcm")
		instr  = flag.Uint64("instr", 2_000_000, "instruction budget for -sim")
	)
	flag.Parse()
	switch {
	case *record:
		doRecord(*bench, *seed, *n, *out)
	case *stats:
		doStats(*in, *n)
	case *sim:
		doSim(*in, *enc, *auth, *instr)
	default:
		fmt.Fprintln(os.Stderr, "secmemtrace: pick one of -record, -stats, -sim")
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "secmemtrace: "+format+"\n", args...)
	os.Exit(1)
}

// checkRecord rejects -record flags that name nothing to record, before
// the output file is created.
func checkRecord(bench string, n uint64, out string) error {
	if out == "" {
		return fmt.Errorf("-record needs -o")
	}
	if _, ok := trace.Profiles()[bench]; !ok {
		return fmt.Errorf("unknown benchmark %q; available: %s", bench, strings.Join(trace.Names(), " "))
	}
	if n == 0 {
		return fmt.Errorf("-n 0: nothing to record")
	}
	return nil
}

func doRecord(bench string, seed int64, n uint64, out string) {
	if err := checkRecord(bench, n, out); err != nil {
		fmt.Fprintln(os.Stderr, "secmemtrace:", err)
		os.Exit(2)
	}
	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	gen := trace.NewGenerator(trace.Get(bench), seed)
	if err := trace.Record(f, gen, n); err != nil {
		fatalf("recording: %v", err)
	}
	info, _ := f.Stat()
	fmt.Printf("recorded %d events of %s (seed %d) to %s (%.1f MB, %.2f bytes/event)\n",
		n, bench, seed, out, float64(info.Size())/(1<<20), float64(info.Size())/float64(n))
}

func openTrace(in string) *trace.FileSource {
	if in == "" {
		fatalf("need -i <trace file>")
	}
	f, err := os.Open(in)
	if err != nil {
		fatalf("%v", err)
	}
	src, err := trace.NewFileSource(f)
	if err != nil {
		fatalf("%v", err)
	}
	return src
}

func doStats(in string, n uint64) {
	src := openTrace(in)
	sum := trace.Summarize(src, n)
	if err := src.Err(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("events:        %d\n", sum.Events)
	fmt.Printf("instructions:  %d\n", sum.Instructions)
	fmt.Printf("mem fraction:  %.3f\n", sum.MemFraction())
	fmt.Printf("stores:        %d (%.1f%% of events)\n", sum.Stores, 100*float64(sum.Stores)/float64(max(1, sum.Events)))
	fmt.Printf("dependent:     %d (%.1f%% of events)\n", sum.Dependent, 100*float64(sum.Dependent)/float64(max(1, sum.Events)))
	fmt.Printf("footprint:     %d blocks (%.1f MB)\n", sum.UniqueBlocks, float64(sum.UniqueBlocks)*64/(1<<20))
	fmt.Printf("address range: %#x .. %#x\n", sum.MinAddr, sum.MaxAddr)
}

func doSim(in, enc, auth string, instr uint64) {
	cfg := config.Default()
	switch strings.ToLower(enc) {
	case "none":
		cfg.Enc = config.EncNone
	case "direct":
		cfg.Enc = config.EncDirect
	case "mono":
		cfg.Enc = config.EncCounterMono
	case "split":
		cfg.Enc = config.EncCounterSplit
	case "global":
		cfg.Enc = config.EncCounterGlobal
	default:
		fatalf("unknown -enc %q", enc)
	}
	switch strings.ToLower(auth) {
	case "none":
		cfg.Auth = config.AuthNone
		cfg.AuthenticateCounters = false
	case "sha":
		cfg.Auth = config.AuthSHA1
	case "gcm":
		cfg.Auth = config.AuthGCM
	default:
		fatalf("unknown -auth %q", auth)
	}
	run := func(c config.SystemConfig, src *trace.FileSource) cpu.Result {
		mem, err := core.NewMemSystem(c)
		if err != nil {
			fatalf("%v", err)
		}
		res := cpu.New(c, mem).Run(src, instr)
		if err := src.Err(); err != nil {
			fatalf("replay: %v", err)
		}
		return res
	}
	base := run(config.Baseline(), openTrace(in))
	prot := run(cfg, openTrace(in))
	fmt.Printf("trace:          %s\n", in)
	fmt.Printf("scheme:         %s (%s requirement)\n", cfg.SchemeName(), cfg.Req)
	fmt.Printf("baseline IPC:   %.3f (%d instructions, %d L2 misses)\n",
		base.IPC(), base.Instructions, base.L2Misses)
	fmt.Printf("protected IPC:  %.3f\n", prot.IPC())
	fmt.Printf("normalized IPC: %.3f\n", prot.IPC()/base.IPC())
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
