package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// invoke runs the benchmark in-process and decodes its last output line.
func invoke(t *testing.T, args ...string) (*result, string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("perfbench %v: exit %d: %s", args, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return &res, out.String()
}

var beyondRE = regexp.MustCompile(`op_tail = p([0-9.]+) over (\d+) ops \((\d+) beyond\)`)

func TestWorkloadsEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out := invoke(t, "--workload", w.Name, "--seed", "7", "--seconds", "1")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, failed %d of %d\n%s", res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if got.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
				}
				if !strings.Contains(out, m.Name) {
					t.Errorf("metric %s missing from the printed table", m.Name)
				}
			}
			if r := res.Metrics["success_rate"].Value; r != 1 {
				t.Errorf("success_rate %v (error_rate %v), want 1", r, 1-r)
			}
			m := beyondRE.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no op_tail line in output:\n%s", out)
			}
			if n, _ := strconv.Atoi(m[2]); n != res.Attempted {
				t.Errorf("op_tail over %d ops, attempted %d", n, res.Attempted)
			}
			if beyond, _ := strconv.Atoi(m[3]); beyond < 10 {
				t.Errorf("op_tail p%s has %d samples beyond it, want >= 10", m[1], beyond)
			}
		})
	}
}

// TestTracedRunRepeats runs each workload's traced run twice: every
// per-layer metric is printed with its unit, and the exact counters repeat.
func TestTracedRunRepeats(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			args := []string{"--workload", w.Name, "--seed", "11", "--seconds", "1", "--trace", "1"}
			first, out := invoke(t, args...)
			second, _ := invoke(t, args...)
			for _, res := range []*result{first, second} {
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("traced run: correct %v, failed %d\n%s", res.Correct, res.Failed, out)
				}
			}
			for _, l := range perLayer {
				got, ok := first.Metrics[l.name]
				if !ok || got.Unit != l.unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", l.name, got, ok, l.unit)
				}
				if l.exact && second.Metrics[l.name].Value != got.Value {
					t.Errorf("exact metric %s: %v then %v", l.name, got.Value, second.Metrics[l.name].Value)
				}
			}
			if first.Attempted != second.Attempted {
				t.Errorf("attempted %d then %d", first.Attempted, second.Attempted)
			}
			if first.Metrics["trace.overhead_frac"].Value == 0 {
				t.Error("trace.overhead_frac not measured")
			}
		})
	}
}

func TestBenchmarkJSONMatchesPerLayer(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := b.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, got, l)
		}
	}
	res := endToEnd(&phase{samples: []sample{{ms: 1}}, wall: 1, cpu: 1}, []float64{1})
	for _, m := range b.EndToEnd {
		if got, ok := res[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: benchmark has %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

func TestMedianBusy(t *testing.T) {
	ph := &phase{samples: []sample{
		{ms: 10, group: "a"}, {ms: 12, group: "a"}, {ms: 500, group: "a"},
		{ms: 100, group: "b"},
	}}
	// a: 3 ops at median 12 ms; b: 1 op at 100 ms. The 500 ms stall does
	// not count beyond its group's median.
	if got, want := medianBusy(ph), 0.136; math.Abs(got-want) > 1e-12 {
		t.Errorf("one client: medianBusy = %g s, want %g", got, want)
	}
	ph.clients = 2
	if got, want := medianBusy(ph), 0.068; math.Abs(got-want) > 1e-12 {
		t.Errorf("two clients: medianBusy = %g s, want %g", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{21, 50, 10},
		{64, 75, 16},
		{576, 95, 28},
		{640, 95, 32},
		{992, 95, 49},
		{1128, 99, 11},
		{4000, 99, 40},
		{40000, 99.9, 40},
	} {
		p, beyond := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", tc.n, p, beyond, tc.p, tc.beyond)
		}
	}
}

func TestDeriveSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := derive(42, "tree", i)
		if s <= 0 || s > 1<<31 || seen[s] {
			t.Fatalf("derive(42, tree, %d) = %d: out of range or repeated", i, s)
		}
		seen[s] = true
	}
	if derive(1, "tree", 0) == derive(2, "tree", 0) || derive(1, "tree", 0) != derive(1, "tree", 0) {
		t.Error("derive must depend on the workload seed, deterministically")
	}
}
