// Command mbbench is the end-to-end benchmark of an mbTLS deployment:
// a client, a client-side middlebox on a session host inside the
// simulated enclave, and an origin on a session host, all in one
// process and talking over loopback TCP. See README.md.
//
//	mbbench --workload churn|rpc|bulk --seed N --seconds S --trace 0|1
//	mbbench selftest
//	mbbench stability
//
// A run prints a detail line (fingerprint, CPU use, steal, p99) and, as
// its last line, the result: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runLimit bounds a run's wall time (a window longer than 110 s extends
// it); a run past it exits non-zero.
const runLimit = 170 * time.Second

func main() {
	start := time.Now()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selftest":
			os.Exit(selftestMain(os.Args[2:]))
		case "stability":
			os.Exit(stabilityMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("mbbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: churn, rpc or bulk")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.BoolVar(&o.stripHeader, "strip-header", false, "self-test fault: a pass-through Processor replaces the header inserter")
	fs.BoolVar(&o.corrupt, "corrupt-expected", false, "self-test fault: flip one expected byte")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		logf("invalid flags")
		os.Exit(2)
	}
	limit := max(runLimit, time.Duration(o.seconds+60)*time.Second)
	time.AfterFunc(limit-time.Since(start), func() {
		logf("run exceeded %v", limit)
		os.Exit(3)
	})
	res, det, err := run(o, start)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	for _, e := range det.Errors {
		logf("%s", e)
	}
	printJSON(det)
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		logf("encode: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
