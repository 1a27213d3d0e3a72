// Command rpaibench regenerates the paper's evaluation tables and figures
// (SIGMOD '22 sections 5.2.1-5.2.2) from the synthetic workloads.
//
// Usage:
//
//	rpaibench -exp table1|scaling|fig7|fig8|fig8d|fig9|cadence|latency|all [flags]
//	rpaibench -exp replay -trace book.csv [-query vwap]
//
// Every experiment here runs the hand-written executors of internal/queries.
// The serving stack (catalog, shards, WAL, wire, subscriptions) is measured
// by the stack benchmark instead: `make benchmark` (BENCHMARK.json).
//
// The default scales finish in minutes on a laptop; -full switches Figure 8
// to the paper's 100k-event sweep. Any experiment can be profiled with
// -cpuprofile/-memprofile.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rpai/internal/bench"
	"rpai/internal/stream"
)

// experiments lists every -exp value, for the flag's help text and the
// unknown-experiment message.
const experiments = "table1, scaling, fig7, fig8, fig8d, fig9, cadence, latency, replay, or all"

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+experiments)
		events  = flag.Int("events", 10000, "finance trace length for fig7")
		sf      = flag.Float64("sf", 1, "TPC-H scale factor for fig7")
		seed    = flag.Int64("seed", 1, "workload seed")
		full    = flag.Bool("full", false, "run fig8 at paper scale (adds the 100k point)")
		quick   = flag.Bool("quick", false, "shrink every experiment for a fast smoke run")
		figNine = flag.Int("fig9-events", 4000, "trace length for fig9")
		format  = flag.String("format", "text", "output format: text or csv")
		trace   = flag.String("trace", "", "replay: order-book CSV trace file (as emitted by datagen)")
		rQuery  = flag.String("query", "vwap", "replay: finance query to run over -trace")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpaibench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rpaibench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rpaibench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rpaibench:", err)
			}
		}()
	}
	csvOut := *format == "csv"
	if !csvOut && *format != "text" {
		fmt.Fprintf(os.Stderr, "rpaibench: unknown format %q\n", *format)
		os.Exit(2)
	}
	if csvOut && *exp == "table1" {
		fmt.Fprintln(os.Stderr, "rpaibench: table1 has no CSV form; use -format text")
		os.Exit(2)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if run("table1") && !csvOut {
		ran = true
		fmt.Print(bench.FormatTable1(bench.Table1()))
		fmt.Println()
	}
	if run("scaling") {
		ran = true
		cfg := bench.DefaultScaling()
		if *quick {
			cfg.SmallN, cfg.LargeN = 200, 800
		}
		cfg.Seed = *seed
		rows := bench.MeasureScaling(cfg)
		if csvOut {
			fmt.Print(bench.ScalingCSV(rows))
		} else {
			fmt.Print(bench.FormatScaling(rows))
			fmt.Println()
		}
	}
	if run("fig7") {
		ran = true
		cfg := bench.Fig7Config{FinanceEvents: *events, TPCHScale: *sf, Seed: *seed}
		if *quick {
			cfg.FinanceEvents, cfg.TPCHScale = 1000, 0.1
		}
		rows := bench.Fig7(cfg)
		if csvOut {
			fmt.Print(bench.Fig7CSV(rows))
		} else {
			fmt.Print(bench.FormatFig7(rows))
			fmt.Println()
		}
	}
	if run("fig8") {
		ran = true
		cfg := bench.DefaultFig8()
		if *full {
			cfg = bench.FullFig8()
		}
		if *quick {
			cfg.Sizes = []int{100, 1000}
		}
		cfg.Seed = *seed
		series := bench.Fig8(cfg)
		if csvOut {
			fmt.Print(bench.Fig8CSV(series))
		} else {
			fmt.Print(bench.FormatFig8(series))
		}
	}
	if run("fig8d") {
		ran = true
		cfg := bench.DefaultFig8d()
		if *quick {
			cfg.Scales = []float64{0.1, 0.5}
		}
		cfg.Seed = *seed
		points := bench.Fig8d(cfg)
		if csvOut {
			fmt.Print(bench.Fig8dCSV(points))
		} else {
			fmt.Print(bench.FormatFig8d(points))
			fmt.Println()
		}
	}
	if run("cadence") {
		ran = true
		cfg := bench.DefaultCadence()
		if *quick {
			cfg.Events = 2000
		}
		cfg.Seed = *seed
		points := bench.Cadence(cfg)
		if csvOut {
			fmt.Print(bench.CadenceCSV(cfg.Query, points))
		} else {
			fmt.Print(bench.FormatCadence(cfg.Query, points))
			fmt.Println()
		}
	}
	if run("latency") {
		ran = true
		cfg := bench.DefaultLatency()
		if *quick {
			cfg.Events, cfg.WarmUp = 2000, 200
		}
		cfg.Seed = *seed
		rows := bench.Latency(cfg)
		if csvOut {
			fmt.Print(bench.LatencyCSV(cfg.Query, rows))
		} else {
			fmt.Print(bench.FormatLatency(cfg.Query, rows))
			fmt.Println()
		}
	}
	if *exp == "replay" {
		ran = true
		if *trace == "" {
			fmt.Fprintln(os.Stderr, "rpaibench: -exp replay requires -trace")
			os.Exit(2)
		}
		f, err := os.Open(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpaibench:", err)
			os.Exit(1)
		}
		events, err := stream.ReadOrderBookCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpaibench:", err)
			os.Exit(1)
		}
		fmt.Printf("replaying %d events from %s through %s\n", len(events), *trace, *rQuery)
		for _, sys := range []bench.System{bench.SysToaster, bench.SysRPAI} {
			elapsed, res := bench.NewFinanceRunner(*rQuery, sys, events).Run()
			fmt.Printf("  %-8s %12v   result %g\n", sys, elapsed.Round(time.Microsecond), res)
		}
	}
	if run("fig9") {
		ran = true
		cfg := bench.DefaultFig9()
		cfg.Events = *figNine
		if *quick {
			cfg.Events, cfg.SampleEvery = 1000, 100
		}
		cfg.Seed = *seed
		curves := bench.Fig9(cfg)
		if csvOut {
			fmt.Print(bench.Fig9CSV(curves))
		} else {
			fmt.Print(bench.FormatFig9(curves))
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rpaibench: unknown experiment %q; valid: %s. Serving-stack numbers come from `make benchmark`.\n", *exp, experiments)
		os.Exit(2)
	}
}
