package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the stability command and
// the self-test read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runChild runs one benchmark run in a fresh process and returns its
// detail and result lines.
func runChild(args ...string) (*result, *detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("mbbench %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	var det detail
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("mbbench %s: want a detail and a result line, got %q", strings.Join(args, " "), stdout.String())
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("mbbench %s: result line: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		return nil, nil, fmt.Errorf("mbbench %s: detail line: %w", strings.Join(args, " "), err)
	}
	return &res, &det, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// stabilityRuns is the number of runs per set and workload: the ten
// runs per workload the benchmark's spread is judged on.
const stabilityRuns = 10

// stabilityMain runs two interleaved sets of runs of every workload of
// BENCHMARK.json, each run in a fresh process with its own seed and
// BENCHMARK.json's run_seconds, and prints per metric each set's median
// and quartiles, the set-vs-set change and whether it and each set's
// spread lie within the metric's bound.
func stabilityMain(args []string) int {
	if len(args) > 0 {
		logf("stability takes no arguments")
		return 2
	}
	bench, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		logf("stability: %v", err)
		return 1
	}
	secs := bench.RunSeconds
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}

	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	var attempted, failed [2]map[string]int64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		attempted[s], failed[s] = map[string]int64{}, map[string]int64{}
	}
	for i := 0; i < stabilityRuns; i++ {
		for _, w := range names {
			for k := 0; k < 2; k++ {
				set := k
				if i%2 == 1 {
					set = 1 - k // alternate which set runs first
				}
				seed := uint64(1 + i + 1000*set)
				res, det, err := runChild("--workload", w, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(secs), "--trace", "0")
				if err != nil {
					logf("stability: %v", err)
					return 1
				}
				if !res.Correct {
					logf("stability: %s seed %d reported correct=false", w, seed)
					return 1
				}
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				for name, m := range det.Figures {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				values[set][w]["steal_share"] = append(values[set][w]["steal_share"], det.StealShare)
				attempted[set][w] += res.Attempted
				failed[set][w] += res.Failed
				logf("stability: run %d/%d %s set %c seed %d: cpu_us_per_op %.1f ops_per_s %.1f steal %.3f", i+1, stabilityRuns, w, 'A'+set, seed,
					res.Metrics["cpu_us_per_op"].Value, det.Figures["ops_per_s"].Value, det.StealShare)
			}
		}
	}

	ok := true
	fmt.Printf("stability: %d runs per set, %d s each; spread = (q3-q1)/median; change = set B median vs set A, + is worse\n", stabilityRuns, secs)
	for _, w := range names {
		fmt.Printf("\n%s (failed ops: set A %d/%d, set B %d/%d)\n", w, failed[0][w], attempted[0][w], failed[1][w], attempted[1][w])
		fmt.Printf("  %-16s %12s %8s %12s %8s %8s %6s  %s\n", "metric", "A median", "A sprd", "B median", "B sprd", "change", "bound", "verdict")
		if failed[0][w]*attempted[1][w] != failed[1][w]*attempted[0][w] {
			ok = false
			fmt.Printf("  failed-op shares differ between the sets\n")
		}
		for _, e := range bench.EndToEnd {
			var med, spread [2]float64
			for s := 0; s < 2; s++ {
				q1, q2, q3 := quartiles(values[s][w][e.Name])
				med[s] = q2
				spread[s] = ratio(q3-q1, q2)
			}
			change := ratio(med[1]-med[0], med[0])
			if e.Better == "higher" {
				change = -change
			}
			// The sets run the same code, so a change either way is
			// noise. setup_s is held to the change bound only: set-up
			// is short and runs first, so its spread follows the
			// host's load more than any other metric's, and a
			// regression in it still shows as a change of the median.
			widest := math.Max(spread[0], spread[1])
			verdict := "ok"
			switch {
			case math.Abs(change) > e.Bound:
				verdict = "CHANGE OVER BOUND"
			case e.Name == "setup_s" && widest > e.Bound/3:
				verdict = "ok (spread over bound/3; setup_s spread not bounded)"
			case widest > e.Bound:
				verdict = "SPREAD OVER BOUND"
			case widest > e.Bound/3:
				verdict = "ok (spread over bound/3)"
			}
			if strings.HasPrefix(verdict, "CHANGE") || strings.HasPrefix(verdict, "SPREAD") {
				ok = false
			}
			fmt.Printf("  %-16s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %5.0f%%  %s\n", e.Name,
				med[0], 100*spread[0], med[1], 100*spread[1], 100*change, 100*e.Bound, verdict)
		}
		// The detail line's figures carry no bound; their spread shows
		// why (see README.md).
		for _, name := range []string{"ops_per_s", "goodput_gbps", "latency_p50_us", "latency_p90_us", "heap_inuse_mib", "steal_share"} {
			var med, spread [2]float64
			for s := 0; s < 2; s++ {
				q1, q2, q3 := quartiles(values[s][w][name])
				med[s], spread[s] = q2, ratio(q3-q1, q2)
			}
			fmt.Printf("  %-16s %12.5g %7.1f%% %12.5g %7.1f%% %+7.1f%% %6s  unbounded\n", name,
				med[0], 100*spread[0], med[1], 100*spread[1], 100*ratio(med[1]-med[0], med[0]), "-")
		}
	}
	if !ok {
		fmt.Println("\nstability: FAIL")
		return 1
	}
	fmt.Println("\nstability: ok")
	return 0
}
