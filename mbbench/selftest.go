package main

import (
	"fmt"
	"strings"
)

// selftestMain shows that the benchmark runs clean and that its checks
// can fail: short runs of every workload (untraced and traced) must
// report no failed op, and runs with a fault must report every op
// failed and correct=false — a pass-through Processor in place of the
// header inserter (the origin never sees the inserted Via header), and
// a flipped byte in every expected payload.
func selftestMain(args []string) int {
	if len(args) > 0 {
		logf("selftest takes no arguments")
		return 2
	}
	bench, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		logf("selftest: %v", err)
		return 1
	}
	var layerNames []string
	for _, m := range bench.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	cases := []struct {
		name      string
		args      []string
		allFailed bool // every op must fail (correct=false); otherwise none may
		traced    bool
	}{
		{"churn clean", []string{"--workload", "churn"}, false, false},
		{"rpc clean", []string{"--workload", "rpc"}, false, false},
		{"bulk clean", []string{"--workload", "bulk"}, false, false},
		{"churn traced", []string{"--workload", "churn", "--trace", "1"}, false, true},
		{"rpc traced", []string{"--workload", "rpc", "--trace", "1"}, false, true},
		{"bulk traced", []string{"--workload", "bulk", "--trace", "1"}, false, true},
		{"churn missing Via header", []string{"--workload", "churn", "--strip-header"}, true, false},
		{"rpc missing Via header", []string{"--workload", "rpc", "--strip-header"}, true, false},
		{"churn corrupted expected byte", []string{"--workload", "churn", "--corrupt-expected"}, true, false},
		{"rpc corrupted expected byte", []string{"--workload", "rpc", "--corrupt-expected"}, true, false},
		{"bulk corrupted expected byte", []string{"--workload", "bulk", "--corrupt-expected"}, true, false},
	}
	failures := 0
	for _, c := range cases {
		res, _, err := runChild(append(c.args, "--seed", "7", "--seconds", "2")...)
		verdict := ""
		switch {
		case err != nil:
			verdict = err.Error()
		case res.Attempted == 0:
			verdict = "no op attempted"
		case c.allFailed && (res.Failed != res.Attempted || res.Correct):
			verdict = fmt.Sprintf("%d of %d ops failed (correct=%v), want all (correct=false)", res.Failed, res.Attempted, res.Correct)
		case !c.allFailed && (res.Failed != 0 || !res.Correct):
			verdict = fmt.Sprintf("%d of %d ops failed (correct=%v), want none", res.Failed, res.Attempted, res.Correct)
		}
		if err == nil && c.traced {
			var missing []string
			for _, name := range layerNames {
				if _, ok := res.Metrics[name]; !ok {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 && verdict == "" {
				verdict = "per-layer metrics missing: " + strings.Join(missing, ", ")
			}
		}
		if verdict == "" {
			fmt.Printf("ok    %-32s %d/%d ops failed\n", c.name, res.Failed, res.Attempted)
			continue
		}
		failures++
		fmt.Printf("FAIL  %-32s %s\n", c.name, verdict)
	}
	if failures > 0 {
		fmt.Printf("selftest: %d of %d cases failed\n", failures, len(cases))
		return 1
	}
	fmt.Printf("selftest: all %d cases passed\n", len(cases))
	return 0
}
