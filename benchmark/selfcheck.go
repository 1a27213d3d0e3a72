package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the self-check needs: each
// end-to-end metric's regression bound and direction.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// onePass re-executes this binary for one timed run and returns its
// end-to-end metrics. A fresh process per pass keeps heap and scheduler state
// from leaking between passes.
func onePass(workload string, seed uint64, seconds float64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass failed: %w\n%s", err, outb)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(outb))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("pass printed no result line: %w", err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("pass reported incorrect results: %s", last)
	}
	m := make(map[string]float64, len(rep.Metrics))
	for k, v := range rep.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// selfCheck is -selfcheck K: per workload, two interleaved sets (A B A B ...)
// of K passes of this same binary, each pass on its own seed. It prints every
// end-to-end metric's median and quartiles per set, the interquartile spread
// as a share of the median, and how far set B's median is worse than set
// A's, and fails when any of those exceeds the metric's bound in
// BENCHMARK.json. Same code on both sides: whatever it reports is noise.
func selfCheck(out io.Writer, names []string, k int, seed uint64, seconds float64) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check reads its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	failed := 0
	fmt.Fprintf(out, "| workload | metric | bound | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | B worse by |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			m, err := onePass(name, seed+uint64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s pass %d: %w", name, i, err)
			}
			for metric, v := range m {
				sets[i%2][metric] = append(sets[i%2][metric], v)
			}
		}
		for _, e := range spec.EndToEnd {
			a, bset := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(bset)
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(bset)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			if worse > e.Bound || (e.Name != "setup_s" && max(spreadA, spreadB) > e.Bound) {
				verdict = " FAIL"
				failed++
			}
			fmt.Fprintf(out, "| %s | %s (%s) | %.0f%% | %.4g [%.4g, %.4g] | %.1f%% | %.4g [%.4g, %.4g] | %.1f%% | %+.1f%%%s |\n",
				name, e.Name, e.Unit, 100*e.Bound, ma, q1a, q3a, 100*spreadA, mb, q1b, q3b, 100*spreadB, 100*worse, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metric/workload pairs moved by more than their bound between two sets of runs of the same code", failed)
	}
	fmt.Fprintln(out, "self-check passed: every end-to-end median repeats within its bound")
	return nil
}
