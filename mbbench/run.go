package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// stripHeader and corrupt are the self-test's faults: stripHeader
	// replaces the header inserter with a pass-through Processor;
	// corrupt flips one expected byte in every comparison.
	stripHeader bool
	corrupt     bool
}

// workloadSpec fixes a workload's shape.
type workloadSpec struct {
	clients   int  // closed-loop client connections
	processor bool // the middlebox runs mbtls-proxy's header inserter
	round     int  // ops per client cycle; runs stop only at whole cycles
	warmOps   int  // untimed ops per client before the window
	// maxRate bounds a client's ops per second; it sizes the latency
	// records allocated before the window.
	maxRate int
}

var workloads = map[string]workloadSpec{
	"churn": {clients: 2, processor: true, round: 4, warmOps: 16, maxRate: 2000},
	"rpc":   {clients: 2, processor: true, round: 1, warmOps: 400, maxRate: 20000},
	"bulk":  {clients: 1, processor: false, round: 1, warmOps: 16, maxRate: 1000},
}

// setups is how many times a run builds and warms the deployment;
// setup_s is the median of their CPU times, and the last one is
// measured.
const setups = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: the run's provenance, the figures a
// user of the deployment sees that carry no bound (see README.md), and
// what tells a slow run from a slow program.
type detail struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	WindowS     float64     `json:"window_s"`
	// SetupWallS and SetupCPUS are each set-up's wall and process CPU
	// time.
	SetupWallS []float64 `json:"setup_wall_s"`
	SetupCPUS  []float64 `json:"setup_cpu_s"`
	// Figures are ops_per_s, goodput_gbps, latency_p50_us,
	// latency_p90_us, latency_p99_us and heap_inuse_mib.
	Figures        map[string]metric `json:"figures"`
	LatencySamples int               `json:"latency_samples"`
	// ProcessCPUs is process CPU time per wall second over the window;
	// CPUUtil divides it by GOMAXPROCS. StealShare is the host's steal
	// time over all its CPUs' time in the window (/proc/stat).
	ProcessCPUs    float64  `json:"process_cpus"`
	CPUUtil        float64  `json:"cpu_util"`
	StealShare     float64  `json:"steal_share"`
	HostFailed     uint64   `json:"host_failed"`
	HostOverloaded uint64   `json:"host_overloaded"`
	Errors         []string `json:"errors,omitempty"`
}

type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func takeFingerprint() fingerprint {
	f := fingerprint{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			f.Commit = rev
			if modified == "true" {
				f.Commit += "+modified"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return f
}

// newTally holds the latencies of n clients, samples each without
// growing.
func newTally(n, samples int) *tally {
	t := &tally{lat: make([][]time.Duration, n)}
	for i := range t.lat {
		t.lat[i] = make([]time.Duration, 0, samples)
	}
	return t
}

// tally collects the ops of one drive.
type tally struct {
	mu        sync.Mutex
	lat       [][]time.Duration // per client, allocated before the drive
	attempted int64
	failed    int64
	bytes     int64 // payload bytes the completed ops verified
	errs      []string
}

// drive runs every client's closed loop until count ops each (count >
// 0) or, stopping only at whole cycles, until the deadline. next holds
// each client's next op number across drives.
func drive(clients []client, next []int, spec workloadSpec, tr *tracer, count int, deadline time.Time, t *tally) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client, lat []time.Duration) {
			defer wg.Done()
			var attempted, failed, bytes int64
			var errs []string
			for n := 0; ; n++ {
				k := next[i]
				if k%spec.round == 0 && ((count > 0 && n >= count) || (count == 0 && !time.Now().Before(deadline))) {
					break
				}
				o := tr.newOp(int64(i)<<40 | int64(k))
				start := time.Now()
				b, err := c.op(k, o)
				end := time.Now()
				tr.finishOp(o, start, end)
				next[i]++
				attempted++
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("client %d op %d: %v", i, k, err))
					}
					continue
				}
				bytes += int64(b)
				lat = append(lat, end.Sub(start))
			}
			t.mu.Lock()
			t.lat[i] = lat
			t.attempted += attempted
			t.failed += failed
			t.bytes += bytes
			t.errs = append(t.errs, errs...)
			t.mu.Unlock()
		}(i, c, t.lat[i])
	}
	wg.Wait()
}

// latencies returns every completed op's latency, sorted.
func (t *tally) latencies() []time.Duration {
	var all []time.Duration
	for _, l := range t.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// setUp builds the deployment, its clients and their sessions, and
// warms them up.
func setUp(o options, spec workloadSpec, tr *tracer) (*deployment, []client, []int, error) {
	d, err := deploy(o, newCorpus(o.seed), spec.processor, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	v := verifier{want: newCorpus(o.seed), corrupt: o.corrupt}
	clients := make([]client, spec.clients)
	for i := range clients {
		ids := derive(o.seed, uint64(10+i))
		switch o.workload {
		case "churn":
			clients[i] = &churnClient{d: d, v: v, ids: ids}
		case "rpc":
			c := &rpcClient{d: d, v: v, ids: ids, sizes: bodySizes(derive(o.seed, uint64(20+i)))}
			err = c.connect()
			clients[i] = c
		case "bulk":
			c := &bulkClient{d: d, v: v, ids: ids, buf: make([]byte, bulkObject)}
			err = c.connect()
			clients[i] = c
		}
		if err != nil {
			tearDown(d, clients)
			return nil, nil, nil, fmt.Errorf("connect client %d: %w", i, err)
		}
	}
	next := make([]int, len(clients))
	warm := newTally(len(clients), spec.warmOps+spec.round)
	drive(clients, next, spec, nil, spec.warmOps, time.Time{}, warm)
	if warm.failed > 0 && !o.stripHeader && !o.corrupt {
		logf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.errs)
	}
	return d, clients, next, nil
}

func tearDown(d *deployment, clients []client) {
	for _, c := range clients {
		if c != nil {
			c.close()
		}
	}
	d.close()
}

// window is the process state at one edge of the measured window.
type window struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	steal   uint64
	total   uint64
	ioCalls uint64
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleWindow() window {
	w := window{at: time.Now(), cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs
	w.steal, w.total = procStatCPU()
	w.ioCalls = procSelfIOCalls()
	return w
}

// procStatCPU returns the steal and total jiffies of all CPUs.
func procStatCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest ...]:
	// guest time is already counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// procSelfIOCalls returns the process's read and write system call
// count (syscr + syscw).
func procSelfIOCalls() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n uint64
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			n += x
		}
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run sets the deployment up setups times, measures the last one for
// o.seconds and tears it down.
func run(o options, start time.Time) (*result, *detail, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want churn, rpc or bulk)", o.workload)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	det := &detail{Workload: o.workload, Seed: o.seed, Trace: o.trace, Fingerprint: takeFingerprint()}
	var (
		d       *deployment
		clients []client
		next    []int
		err     error
	)
	for i := 0; i < setups; i++ {
		wall, cpu := time.Now(), processCPU()
		if i == 0 {
			wall, cpu = start, 0
		}
		if d, clients, next, err = setUp(o, spec, tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		det.SetupWallS = append(det.SetupWallS, time.Since(wall).Seconds())
		det.SetupCPUS = append(det.SetupCPUS, (processCPU() - cpu).Seconds())
		if i < setups-1 {
			tearDown(d, clients)
			f, ov := d.hostFaults()
			det.HostFailed += f
			det.HostOverloaded += ov
		}
	}

	var (
		prof   bytes.Buffer
		layers *layerBase
	)
	if tr != nil {
		layers = takeLayerBase(d)
		tr.begin()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	t := newTally(len(clients), spec.maxRate*o.seconds)
	w0 := sampleWindow()
	drive(clients, next, spec, tr, 0, w0.at.Add(time.Duration(o.seconds)*time.Second), t)
	w1 := sampleWindow()
	if tr != nil {
		pprof.StopCPUProfile()
		tr.stop()
	}
	attempted, failed, payload, errs := t.attempted, t.failed, t.bytes, t.errs
	completed := attempted - failed
	lat := t.latencies()
	// The latency records are the benchmark's, not the program's: drop
	// them before the heap is measured.
	t = nil
	p50, p90, p99 := quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)
	lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	elapsed := w1.at.Sub(w0.at)
	perOp := func(x float64) float64 {
		if completed == 0 {
			return 0
		}
		return x / float64(completed)
	}
	cpu := w1.cpu - w0.cpu
	e2e := map[string]metric{
		"setup_s":         {median(det.SetupCPUS), "s"},
		"cpu_us_per_op":   {perOp(us(cpu)), "us"},
		"allocs_per_op":   {perOp(float64(w1.mallocs - w0.mallocs)), "1"},
		"ops_per_s":       {float64(completed) / elapsed.Seconds(), "1/s"},
		"goodput_gbps":    {float64(payload) * 8 / elapsed.Seconds() / 1e9, "Gbit/s"},
		"latency_p50_us":  {us(p50), "us"},
		"latency_p90_us":  {us(p90), "us"},
		"latency_p99_us":  {us(p99), "us"},
		"heap_inuse_mib":  {float64(ms.HeapInuse) / (1 << 20), "MiB"},
		"process_cpus":    {cpu.Seconds() / elapsed.Seconds(), "1"},
		"syscalls_per_op": {perOp(float64(w1.ioCalls - w0.ioCalls)), "1"},
	}
	det.WindowS = elapsed.Seconds()
	det.Figures = map[string]metric{}
	for _, name := range []string{"ops_per_s", "goodput_gbps", "latency_p50_us", "latency_p90_us", "latency_p99_us", "heap_inuse_mib"} {
		det.Figures[name] = e2e[name]
	}
	det.LatencySamples = int(completed)
	det.ProcessCPUs = e2e["process_cpus"].Value
	det.CPUUtil = det.ProcessCPUs / float64(runtime.GOMAXPROCS(0))
	if dt := w1.total - w0.total; dt > 0 {
		det.StealShare = float64(w1.steal-w0.steal) / float64(dt)
	}
	det.Errors = errs

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if tr != nil {
		res.Metrics, err = layerMetrics(d, tr, layers, prof.Bytes(), e2e, completed)
		if err != nil {
			tearDown(d, clients)
			return nil, nil, err
		}
		path := fmt.Sprintf(".bench_build/mbbench/trace/%s-seed%d.jsonl", o.workload, o.seed)
		if err := tr.writeFile(path); err != nil {
			logf("write trace: %v", err)
		}
	} else {
		for _, name := range endToEnd {
			res.Metrics[name] = e2e[name]
		}
	}
	tearDown(d, clients)
	f, ov := d.hostFaults()
	det.HostFailed += f
	det.HostOverloaded += ov
	res.Correct = failed == 0 && det.HostFailed == 0 && det.HostOverloaded == 0
	return res, det, nil
}

// endToEnd names the metrics an untraced run reports.
var endToEnd = []string{"setup_s", "cpu_us_per_op", "allocs_per_op"}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mbbench: "+format+"\n", args...)
}
