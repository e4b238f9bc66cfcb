// Command perfbench is the repository's end-to-end benchmark. It drives the
// public facade (anonnet.Broadcast, anonnet.ExtractTopology) and the run
// server (serve over loopback HTTP) through three closed-loop workloads and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 a
// separate traced run times calls into the layers and the metrics are the
// per-layer ones. README.md in this directory explains every workload and
// metric.
//
//	go build -o perfbench . && ./perfbench --workload tree_seq --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// setups is the number of set-up repetitions behind setup_s.
const setups = 5

// workload is one closed-loop benchmark workload.
type workload interface {
	// setup builds every instance from scratch and runs one untimed warm-up
	// pass, which also records the reference outputs later ops must match.
	setup() error
	// passLen is the number of ops in one pass over the instance list.
	passLen() int
	// nominalOpsPerSec sets the op count: seconds × this rate, rounded up to
	// whole passes. It is a constant, so the op count never depends on how
	// fast the host runs; it is chosen so that op_tail_ms has well over ten
	// samples beyond it at the benchmark's run length.
	nominalOpsPerSec() float64
	// measure runs n timed ops and returns their samples. Output checks run
	// afterwards, in check.
	measure(n int) (*phase, error)
	// check verifies every op of a measured phase, marking failed ops.
	check(p *phase)
	// layers runs the traced phase and returns the per-layer metrics.
	// Its exact counters must equal the untraced phase's, else it fails.
	layers(untraced *phase, log io.Writer) (map[string]float64, error)
	close()
}

var workloads = map[string]func(seed int64) workload{
	"tree_seq":    newTreeSeq,
	"map_shard":   newMapShard,
	"serve_mixed": newServeMixed,
}

// sample is one timed op.
type sample struct {
	ms    float64
	group string // instance or request shape, for the mode table
	fail  string // empty when the op passed its output check
}

// phase is one timed sequence of ops.
type phase struct {
	samples    []sample
	wall       time.Duration
	cpu        time.Duration
	deliveries int64   // simulated deliveries performed by the timed ops
	clients    int     // closed-loop clients that ran ops concurrently; 0 means 1
	mem        memSnap // heap and GC activity
	// invariant is a whole-phase failure that no single op owns (a server
	// counter off its exact value); it makes the run incorrect.
	invariant string
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.fail != "" {
			n++
		}
	}
	return n
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload: tree_seq | map_shard | serve_mixed")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; every instance and scheduler seed derives from it")
	fs.IntVar(&c.seconds, "seconds", 10, "nominal length of the timed phase; fixes the op count")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[c.workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || c.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --trace 0|1, --seconds >= 1\n", sortedKeys(workloads))
		return 2
	}
	c.trace = *traceFlag == 1
	res, err := execute(c, newW(c.seed), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount is the fixed number of timed ops: whole passes covering
// seconds × the workload's nominal rate.
func opCount(c config, w workload) int {
	target := int(math.Ceil(float64(c.seconds) * w.nominalOpsPerSec()))
	passes := max(1, (target+w.passLen()-1)/w.passLen())
	return passes * w.passLen()
}

func execute(c config, w workload, out io.Writer) (*result, error) {
	defer w.close()
	fmt.Fprintf(out, "workload %s  seed %d  seconds %d  trace %v  GOMAXPROCS %d\n",
		c.workload, c.seed, c.seconds, c.trace, runtime.GOMAXPROCS(0))

	// Set-up, repeated: each repetition rebuilds every instance and reruns
	// the warm-up pass, and setup_s is the median, so one slow repetition
	// under host contention does not move it.
	reps := setups
	if c.trace {
		reps = 1
	}
	var setupS []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	n := opCount(c, w)
	runtime.GC()
	ph, err := timed(w, n)
	if err != nil {
		return nil, err
	}
	w.check(ph)
	report(out, ph)

	res := &result{Attempted: len(ph.samples), Failed: ph.failed(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && ph.invariant == ""
	if ph.invariant != "" {
		fmt.Fprintf(out, "invariant violated: %s\n", ph.invariant)
	}
	if !c.trace {
		for name, m := range endToEnd(ph, setupS) {
			res.Metrics[name] = m
		}
		printMetrics(out, res.Metrics)
		return res, nil
	}

	layers, err := w.layers(ph, out)
	if err != nil {
		// A traced run that fails, or whose counters differ from the
		// untraced run's (the wrappers changed the schedule), is invalid.
		fmt.Fprintf(out, "traced run invalid: %v\n", err)
		res.Correct = false
		res.Failed++
		layers = map[string]float64{}
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{Value: layers[l.name], Unit: l.unit}
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// timed runs n ops of w as one phase, measuring wall time, process CPU time
// and heap activity around it.
func timed(w workload, n int) (*phase, error) {
	m0 := readMem()
	cpu0 := cpuTime()
	t0 := time.Now()
	ph, err := w.measure(n)
	wall := time.Since(t0)
	cpu1 := cpuTime()
	m1 := readMem()
	if err != nil {
		return nil, err
	}
	ph.wall, ph.cpu, ph.mem = wall, cpu1-cpu0, m1.sub(m0)
	return ph, nil
}

// endToEnd derives the end-to-end metrics of a phase.
func endToEnd(ph *phase, setupS []float64) map[string]metric {
	lat := latencies(ph.samples)
	ops := float64(len(ph.samples))
	tailP, _ := tailPercentile(len(lat))
	busy := medianBusy(ph)
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"ops_per_s":        {ops / busy, "1/s"},
		"op_p50_ms":        {percentile(lat, 50), "ms"},
		"op_tail_ms":       {percentile(lat, tailP), "ms"},
		"deliveries_per_s": {float64(ph.deliveries) / busy, "deliveries/s"},
		"cpu_ms_per_op":    {float64(ph.cpu) / float64(time.Millisecond) / ops, "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		// success_rate is 1 - error_rate: the output contract wants metrics
		// that are never 0, and error_rate is 0 on correct code.
		"success_rate": {1 - float64(ph.failed())/ops, "fraction"},
	}
}

// medianBusy is the phase's length in seconds with every op counted at its
// group's median latency, divided among the clients that ran concurrently.
// ops_per_s and deliveries_per_s divide by it rather than by the wall time:
// a closed loop's throughput is its clients over its mean op latency, and a
// group median, unlike a sum of latencies, does not move when the host
// stalls a minority of the ops. Every op still counts, at its group's rate;
// stalls and tails show in op_tail_ms and cpu_ms_per_op.
func medianBusy(ph *phase) float64 {
	var total float64
	for _, v := range byGroup(ph.samples) {
		total += float64(len(v)) * median(v)
	}
	return total / 1000 / float64(max(ph.clients, 1))
}

// report prints the phase's latency modes: per group (instance or request
// shape) the sample count and percentiles, then where op_p50 and the tail
// percentile fall, so a reader can see that neither sits on a boundary
// between two modes.
func report(out io.Writer, ph *phase) {
	groups := byGroup(ph.samples)
	fmt.Fprintf(out, "%-28s %6s %9s %9s %9s %9s\n", "group", "ops", "p10_ms", "p50_ms", "p90_ms", "max_ms")
	for _, g := range sortedKeys(groups) {
		v := groups[g]
		sort.Float64s(v)
		fmt.Fprintf(out, "%-28s %6d %9.3f %9.3f %9.3f %9.3f\n", g, len(v),
			percentile(v, 10), percentile(v, 50), percentile(v, 90), v[len(v)-1])
	}
	lat := latencies(ph.samples)
	fmt.Fprintf(out, "all ops: p50 %.3f  p90 %.3f  p95 %.3f  p98 %.3f  p99 %.3f  p99.9 %.3f  max %.3f ms\n",
		percentile(lat, 50), percentile(lat, 90), percentile(lat, 95), percentile(lat, 98),
		percentile(lat, 99), percentile(lat, 99.9), lat[len(lat)-1])
	tailP, beyond := tailPercentile(len(lat))
	fmt.Fprintf(out, "ops %d  op_p50 %.3f ms in %s  op_tail = p%g over %d ops (%d beyond) %.3f ms in %s\n",
		len(lat), percentile(lat, 50), groupAt(ph.samples, percentile(lat, 50)),
		tailP, len(lat), beyond, percentile(lat, tailP), groupAt(ph.samples, percentile(lat, tailP)))
	fmt.Fprintf(out, "wall %.3f s  median-busy %.3f s  cpu %.3f s  deliveries %d  failed %d\n",
		ph.wall.Seconds(), medianBusy(ph), ph.cpu.Seconds(), ph.deliveries, ph.failed())
	for i, s := range ph.samples {
		if s.fail != "" {
			fmt.Fprintf(out, "op %d (%s) failed: %s\n", i, s.group, s.fail)
			break
		}
	}
}

// byGroup returns the latencies of samples by group.
func byGroup(samples []sample) map[string][]float64 {
	groups := map[string][]float64{}
	for _, s := range samples {
		groups[s.group] = append(groups[s.group], s.ms)
	}
	return groups
}

// groupAt names the group of the sample whose latency is v.
func groupAt(samples []sample, v float64) string {
	for _, s := range samples {
		if s.ms == v {
			return s.group
		}
	}
	return "?"
}

func printMetrics(out io.Writer, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(out, "  %-28s %16.6f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
