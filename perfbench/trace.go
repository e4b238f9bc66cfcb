package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	anonnet "repro"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// perLayer lists the metrics of the traced run, in BENCHMARK.json order.
// A workload whose traced run does not time a layer reports 0 for it;
// README.md maps each metric to the workload that drives it. Exact metrics
// are functions of the workload seed alone and repeat on every run.
var perLayer = []struct {
	name, unit, better string
	exact              bool
}{
	{"sim.run_ms", "ms", "lower", false},
	{"sim.self_ms", "ms", "lower", false},
	{"sim.sched_ms", "ms", "lower", false},
	{"sim.sched_ns_per_pop", "ns", "lower", false},
	{"sim.deliveries_per_op", "count", "lower", true},
	{"sim.pops_per_op", "count", "lower", true},
	{"sim.forced_steps_per_op", "count", "higher", true},
	{"sim.peak_in_flight", "count", "lower", true},
	{"anonnet.facade_ms", "ms", "lower", false},
	{"core.receive_ms", "ms", "lower", false},
	{"core.receive_ns_p50", "ns", "lower", false},
	{"core.sends_per_receive", "count", "lower", true},
	{"runtime.allocs_per_op", "count", "lower", false},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", false},
	{"runtime.gc_per_op", "count", "lower", false},
	{"runtime.gc_cpu_frac", "fraction", "lower", false},
	{"shard.drain_ms", "ms", "lower", false},
	{"shard.merge_ms", "ms", "lower", false},
	{"shard.supersteps", "count", "lower", true},
	{"graph.partition_ms", "ms", "lower", false},
	{"shard.imbalance", "ratio", "lower", true},
	{"shard.steals", "count", "lower", true},
	{"shard.stolen_edges", "count", "lower", true},
	{"graph.cut_edges", "count", "lower", true},
	{"graph.effective_cut_edges", "count", "lower", true},
	{"graph.ghost_vertices", "count", "lower", true},
	{"core.total_bits_per_op", "bits", "lower", true},
	{"core.max_msg_bits", "bits", "lower", true},
	{"core.sigma_g", "count", "lower", true},
	{"core.max_state_bits", "bits", "lower", true},
	{"serve.hit_p50_ms", "ms", "lower", false},
	{"serve.key_ms", "ms", "lower", false},
	{"serve.resp_bytes", "bytes", "lower", true},
	{"serve.miss_p50_ms", "ms", "lower", false},
	{"serve.exec_ms", "ms", "lower", false},
	{"serve.miss_overhead_ms", "ms", "lower", false},
	{"serve.hits", "count", "higher", true},
	{"serve.misses", "count", "lower", true},
	{"serve.joins", "count", "lower", true},
	{"serve.executions", "count", "lower", true},
	{"serve.saturated", "count", "lower", true},
	{"serve.evictions", "count", "lower", true},
	{"graph.build_ms", "ms", "lower", false},
	{"trace.overhead_frac", "fraction", "lower", false},
}

// sampleEvery is K: the wrappers time every K-th Receive and every K-th
// scheduler Push/Pop, and a timed call stands for K calls.
const sampleEvery = 16

// span is one timed call, kept in memory until the run ends.
type span struct {
	name   string
	op     int
	parent int // index of the enclosing span; -1 at an op's top level
	start  time.Duration
	dur    time.Duration
	weight int // calls the span stands for (sampleEvery for sampled spans)
}

// tracer records spans around calls the benchmark makes into the layers.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// clock is the cost of one empty timed interval. It is subtracted from
	// every sampled span, whose calls are short enough for it to matter.
	clock time.Duration
}

func newTracer() *tracer {
	d := make([]float64, 2001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return &tracer{origin: time.Now(), clock: time.Duration(median(d))}
}

// open starts a span of op under parent and returns its index, which
// spans recorded while it is open may name as their parent.
func (t *tracer) open(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, weight: 1})
	return len(t.spans) - 1
}

// run times fn as the body of open span id and returns its duration.
func (t *tracer) run(id int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.setDur(id, t0, d)
	return d
}

// setDur records that open span id started at t0 and took d.
func (t *tracer) setDur(id int, t0 time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans[id].start, t.spans[id].dur = t0.Sub(t.origin), d
	t.mu.Unlock()
}

// sampled records a sampled call that started at t0 and took d.
func (t *tracer) sampled(name string, op, parent int, t0 time.Time, d time.Duration) {
	d = max(d-t.clock, 0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: t0.Sub(t.origin), dur: d, weight: sampleEvery})
	t.mu.Unlock()
}

// perOp sums the weighted durations of the spans with any of the given
// names, per op.
func (t *tracer) perOp(names ...string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if slices.Contains(names, s.name) {
			out[s.op] += s.dur * time.Duration(s.weight)
		}
	}
	return out
}

// durations lists the unweighted durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur))
		}
	}
	return out
}

// self is, per op, the duration of the spans named name minus the weighted
// durations of their child spans.
func (t *tracer) self(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.op] += s.dur
		}
	}
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == name {
			out[s.op] -= s.dur * time.Duration(s.weight)
		}
	}
	return out
}

// medianMS is the median over ops of per-op durations, in ms.
func medianMS(perOp map[int]time.Duration) float64 {
	v := make([]float64, 0, len(perOp))
	for _, d := range perOp {
		v = append(v, ms(d))
	}
	return median(v)
}

// summary prints, per span name, the span count, weighted total and self
// time over the traced run.
func (t *tracer) summary(out io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.dur * time.Duration(s.weight)
		a.self += s.dur * time.Duration(s.weight)
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			by[t.spans[s.parent].name].self -= s.dur * time.Duration(s.weight)
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "trace: %d spans, clock overhead %v subtracted per sampled span\n", len(t.spans), t.clock)
	fmt.Fprintf(out, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(out, "%-22s %8d %12.3f %12.3f\n", n, a.n, ms(a.total), ms(a.self))
	}
}

// tracedProto wraps a protocol so that every K-th Node.Receive is timed as
// a span under the op's run span. It counts every receive and every send,
// and is safe for the sharded engine's concurrent shard loops.
type tracedProto struct {
	protocol.Protocol
	t          *tracer
	op, parent int
	receives   atomic.Int64
	sends      atomic.Int64
}

func (p *tracedProto) NewNode(inDeg, outDeg int, role protocol.Role) protocol.Node {
	n := &tracedNode{inner: p.Protocol.NewNode(inDeg, outDeg, role), p: p}
	if term, ok := n.inner.(protocol.Terminal); ok {
		return &tracedTerminal{tracedNode: n, term: term}
	}
	return n
}

type tracedNode struct {
	inner protocol.Node
	p     *tracedProto
}

func (n *tracedNode) Receive(msg protocol.Message, inPort int) ([]protocol.Message, error) {
	p := n.p
	var outs []protocol.Message
	var err error
	if p.receives.Add(1)%sampleEvery != 0 {
		outs, err = n.inner.Receive(msg, inPort)
	} else {
		t0 := time.Now()
		outs, err = n.inner.Receive(msg, inPort)
		p.t.sampled("core.receive", p.op, p.parent, t0, time.Since(t0))
	}
	sent := 0
	for _, o := range outs {
		if o != nil {
			sent++
		}
	}
	p.sends.Add(int64(sent))
	return outs, err
}

// StateBits forwards the paper's memory measure, so Result.MaxStateBits
// sees through the wrapper.
func (n *tracedNode) StateBits() int {
	if s, ok := n.inner.(protocol.StateSized); ok {
		return s.StateBits()
	}
	return 0
}

type tracedTerminal struct {
	*tracedNode
	term protocol.Terminal
}

func (t *tracedTerminal) Done() bool  { return t.term.Done() }
func (t *tracedTerminal) Output() any { return t.term.Output() }

// tracedSched wraps a sequential-engine scheduler so that every K-th Push
// and every K-th Pop is timed, as a sim.sched.push or sim.sched.pop span.
// The random adversary declares no batch capabilities, so hiding them
// behind the wrapper leaves the schedule unchanged; the traced run checks
// that its counters match the untraced run's.
type tracedSched struct {
	sim.Scheduler
	t            *tracer
	op, parent   int
	pushes, pops int
}

func (s *tracedSched) Push(pe sim.PendingEdge) {
	s.pushes++
	if s.pushes%sampleEvery != 0 {
		s.Scheduler.Push(pe)
		return
	}
	t0 := time.Now()
	s.Scheduler.Push(pe)
	s.t.sampled("sim.sched.push", s.op, s.parent, t0, time.Since(t0))
}

func (s *tracedSched) Pop() graph.EdgeID {
	s.pops++
	if s.pops%sampleEvery != 0 {
		return s.Scheduler.Pop()
	}
	t0 := time.Now()
	e := s.Scheduler.Pop()
	s.t.sampled("sim.sched.pop", s.op, s.parent, t0, time.Since(t0))
	return e
}

// counters are the exact, schedule-determined outputs of one run that the
// traced run must reproduce.
type counters struct {
	steps, forced, steals int
	bits                  int64
	sigma                 int
}

func countersOf(r *sim.Result) counters {
	return counters{
		steps: r.Steps, forced: r.ForcedSteps, steals: r.Steals,
		bits: r.Metrics.TotalBits, sigma: r.Metrics.AlphabetSize(),
	}
}

// sameCounters compares the counters of runs of one instance.
func sameCounters(what string, a, b counters) error {
	if a != b {
		return fmt.Errorf("%s: counters %+v, untraced %+v", what, a, b)
	}
	return nil
}

// graphsOf re-reads each network into the internal graph the engines take,
// with identical port numbering.
func graphsOf(nets []*anonnet.Network) ([]*graph.G, error) {
	graphs := make([]*graph.G, len(nets))
	for i, net := range nets {
		g, err := graph.ParseText(bytes.NewReader(net.MarshalText()))
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	return graphs, nil
}
