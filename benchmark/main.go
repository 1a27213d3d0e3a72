// Command benchmark is the repository's one stack benchmark: it builds
// cmd/rpaiserver, starts it as a child process in catalog mode, drives it
// over loopback with internal/wire/client from this single load-generator
// process, checks every answer against an independent oracle, and prints
// each metric by name and unit. See README.md in this directory.
//
// The driver's contract is
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object. Without --workload
// every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed      = flag.Uint64("seed", 1, "input seed: the only argument that changes the generated events")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long the timed phases measure")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics, span file, layer ladder); 0: timed run")
		verify    = flag.Bool("verify", false, "also replay the run's events through bare engine executors and compare with the oracle (slow)")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of this many passes per workload and compare their medians")
		summarise = flag.String("summarise", "", "print the per-layer summary of a span file and exit")
		benchDir  = flag.String("bench-dir", "benchmark", "the benchmark's source directory")
		workDir   = flag.String("work-dir", ".bench_build", "scratch directory for binaries and data")
	)
	if runChild() {
		return
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *summarise != "" {
		if err := summariseFile(os.Stdout, *summarise); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || *seconds > 120 {
		fatal(fmt.Errorf("--seconds %v out of range [1, 120]", *seconds))
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads() {
			names = append(names, w.Name)
		}
	}
	if *selfcheck > 0 {
		if err := selfCheck(os.Stdout, names, *selfcheck, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	// The load generator is one thread; the daemon gets the other cores.
	runtime.GOMAXPROCS(1)
	if err := pinSelf(loadgenCPUs()); err != nil {
		pinFailed = err
	}
	ok := true
	for _, name := range names {
		w, found := workloadByName(name)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		rc := runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Verify: *verify,
			BenchDir: *benchDir, WorkDir: *workDir,
			TraceOut: filepath.Join(*benchDir, "out", "trace-"+w.Name+".json")}
		printHeader(os.Stdout, rc)
		res, err := runStack(rc, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printResult(os.Stdout, rc, res)
		ok = ok && res.Mismatches == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printHeader records the host and configuration, so two reports can be told
// apart before their numbers are compared.
func printHeader(out io.Writer, rc runConfig) {
	w := rc.W
	cfg := serverConfig{Bin: filepath.Join(rc.WorkDir, "rpaiserver"), Dir: "<data>", Addr: "127.0.0.1:<port>",
		Pprof: "127.0.0.1:<port>", Shards: serverShards, GoMaxProcs: serverProcs(), Queries: w.Queries}
	argv := cfg.argv()
	if len(w.Queries) > 1 {
		argv = append(argv[:len(argv)-2*(len(w.Queries)-1)], fmt.Sprintf("(+%d more -register)", len(w.Queries)-1))
	}
	fmt.Fprintf(out, "== %s  seed %d  %gs  trace %v\n", w.Name, rc.Seed, rc.Seconds, rc.Trace)
	fmt.Fprintf(out, "host: nproc %d, %s, %s, commit %s\n", runtime.NumCPU(), cpuModel(), runtime.Version(), commit())
	load := loadAvg1()
	fmt.Fprintf(out, "load average (1 min) at start: %.2f\n", load)
	if load > 0.5 {
		fmt.Fprintln(out, "WARNING: the host is not idle; timings will wobble")
	}
	fmt.Fprintf(out, "GOMAXPROCS: server %d, load generator 1\n", serverProcs())
	fmt.Fprintf(out, "server argv: %s\n", strings.Join(argv, " "))
	fmt.Fprintf(out, "client: 1 ingest connection, BatchSize %d, MaxInFlight %d; paced tick %v, marker every %v\n",
		clientBatchSize, clientMaxInFlight, paceTick, markerEvery)
	fmt.Fprintf(out, "sizes: %d partitions x %d levels, P=%d rows, R=%d ev/s, %d queries, %d push subscribers, %d pull readers every %v (attached in saturate: %v)\n",
		w.Partitions, w.Levels, w.Preload, w.Rate, len(w.Queries), w.PushSubs, w.PullReaders, w.PullEvery, w.ReadersInSaturate)
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown cpu"
}

// commit is best effort: the driver's checkout is not a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	b, _ := os.ReadFile("/proc/loadavg")
	var l float64
	fmt.Sscan(string(b), &l)
	return l
}

// printResult prints every metric by name and unit, then the driver's JSON
// line: the end-to-end metrics of a timed run, the per-layer metrics of a
// traced one.
func printResult(out io.Writer, rc runConfig, res *runResult) {
	fmt.Fprint(out, "wall time per phase:")
	for _, p := range res.Phases {
		fmt.Fprintf(out, " %s %.2fs", p.Name, p.Value)
	}
	fmt.Fprintln(out)
	for _, n := range res.Notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range res.E2E {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintln(out, "per layer:")
	for _, m := range res.Layer {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "attempted_ops %d  failed_ops %d\n", res.Attempted, res.Failed)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	report := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.Mismatches == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]jsonMetric{}}
	ms := res.E2E
	if rc.Trace {
		ms = res.Layer
	}
	for _, m := range ms {
		report.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(report)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", b)
}
