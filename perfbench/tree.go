package main

import (
	"fmt"
	"io"
	"time"

	anonnet "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// tree_seq: Broadcast on random grounded trees, sequential engine, random
// adversary, one goroutine. The tree protocol does a few dyadic halvings per
// delivery, so the sim kernel and the facade are most of an op.
const (
	treeInstances = 8
	// The first seven instances have treeVertices vertices and share one
	// latency mode, which holds op_p50_ms. The last has treeBigVertices:
	// its ops take about five times as long and are the slowest eighth, so
	// op_tail_ms measures ops of one kind, at about their 60th percentile,
	// instead of the host's slowest moments among ops that all cost the same.
	treeVertices    = 10_000
	treeBigVertices = 40_000
	// treeOpsPerSec sizes a run: at 10 s, 80 passes, 640 ops. op_tail_ms
	// is p95, with 32 ops beyond it.
	treeOpsPerSec = 64
	// traceTreePasses is the number of passes the traced run times.
	traceTreePasses = 4
)

var treeMsg = []byte("m")

type treeSeq struct {
	seed      int64
	nets      []*anonnet.Network
	schedSeed []int64
	ref       []treeRef
	buildMS   []float64 // per set-up
	outs      []treeOut // per op of the last measured phase
}

// treeRef is what every op on an instance must reproduce.
type treeRef struct {
	steps int
	bits  int64
	sigma int
}

type treeOut struct {
	inst int
	rep  *anonnet.Report
	err  error
}

func newTreeSeq(seed int64) workload { return &treeSeq{seed: seed} }

func (w *treeSeq) passLen() int              { return treeInstances }
func (w *treeSeq) nominalOpsPerSec() float64 { return treeOpsPerSec }
func (w *treeSeq) close()                    {}

func (w *treeSeq) opts(inst int) []anonnet.Option {
	return []anonnet.Option{
		anonnet.WithScheduler("random"),
		anonnet.WithSeed(w.schedSeed[inst]),
		anonnet.WithAlphabetTracking(),
	}
}

func (w *treeSeq) setup() error {
	t0 := time.Now()
	w.nets, w.schedSeed = nil, nil
	for i := 0; i < treeInstances; i++ {
		n := treeVertices
		if i == treeInstances-1 {
			n = treeBigVertices
		}
		w.nets = append(w.nets, anonnet.RandomTree(n, derive(w.seed, "tree", i)))
		w.schedSeed = append(w.schedSeed, derive(w.seed, "tree-sched", i))
	}
	w.buildMS = append(w.buildMS, ms(time.Since(t0)))
	w.ref = make([]treeRef, treeInstances)
	for i, net := range w.nets {
		if net.Class() != anonnet.ClassGroundedTree {
			return fmt.Errorf("instance %d is %v, not a grounded tree", i, net.Class())
		}
		rep, err := anonnet.Broadcast(net, treeMsg, w.opts(i)...)
		if err := treeOK(rep, err); err != nil {
			return fmt.Errorf("warm-up on instance %d: %w", i, err)
		}
		w.ref[i] = treeRef{rep.Steps, rep.TotalBits, rep.AlphabetSize}
	}
	return nil
}

func treeOK(rep *anonnet.Report, err error) error {
	switch {
	case err != nil:
		return err
	case !rep.Terminated:
		return fmt.Errorf("did not terminate")
	case !rep.AllReceived:
		return fmt.Errorf("not every vertex received the message")
	}
	return nil
}

func (w *treeSeq) measure(n int) (*phase, error) {
	ph := &phase{samples: make([]sample, n)}
	w.outs = make([]treeOut, n)
	for i := 0; i < n; i++ {
		inst := i % treeInstances
		t0 := time.Now()
		rep, err := anonnet.Broadcast(w.nets[inst], treeMsg, w.opts(inst)...)
		ph.samples[i] = sample{ms: ms(time.Since(t0)), group: fmt.Sprintf("tree#%d", inst)}
		w.outs[i] = treeOut{inst, rep, err}
		if rep != nil {
			ph.deliveries += int64(rep.Steps)
		}
	}
	return ph, nil
}

func (w *treeSeq) check(ph *phase) {
	for i, o := range w.outs {
		if err := treeOK(o.rep, o.err); err != nil {
			ph.samples[i].fail = err.Error()
			continue
		}
		got := treeRef{o.rep.Steps, o.rep.TotalBits, o.rep.AlphabetSize}
		if got != w.ref[o.inst] {
			ph.samples[i].fail = fmt.Sprintf("counters %+v, first pass %+v", got, w.ref[o.inst])
		}
	}
}

// simOpts are the options the facade hands the engine for instance inst.
func (w *treeSeq) simOpts(inst int, sched sim.Scheduler) (sim.Options, error) {
	if sched == nil {
		var err error
		if sched, err = sim.NewScheduler("random"); err != nil {
			return sim.Options{}, err
		}
	}
	return sim.Options{Scheduler: sched, Seed: w.schedSeed[inst], TrackAlphabet: true}, nil
}

// layers times, per op, the facade call, a bare sim.Run on the same
// instance and a sim.Run whose protocol and scheduler are wrapped to time
// every K-th Receive and Push/Pop.
func (w *treeSeq) layers(untraced *phase, log io.Writer) (map[string]float64, error) {
	graphs, err := graphsOf(w.nets)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var bare, wrapped, facadeOver []float64
	var pops, receives, sends int64
	var exact []*sim.Result
	for op := 0; op < traceTreePasses*treeInstances; op++ {
		inst := op % treeInstances
		g := graphs[inst]
		var rep *anonnet.Report
		var err error
		df := tr.run(tr.open("anonnet.facade", op, -1), func() {
			rep, err = anonnet.Broadcast(w.nets[inst], treeMsg, w.opts(inst)...)
		})
		if err := treeOK(rep, err); err != nil {
			return nil, fmt.Errorf("op %d facade: %w", op, err)
		}
		if got := (treeRef{rep.Steps, rep.TotalBits, rep.AlphabetSize}); got != w.ref[inst] {
			return nil, fmt.Errorf("op %d facade: counters %+v, first pass %+v", op, got, w.ref[inst])
		}
		opts, err := w.simOpts(inst, nil)
		if err != nil {
			return nil, err
		}
		var b *sim.Result
		db := tr.run(tr.open("sim.run.bare", op, -1), func() {
			b, err = sim.Run(g, core.NewTreeBroadcast(treeMsg, core.RulePow2), opts)
		})
		if err != nil {
			return nil, fmt.Errorf("op %d bare run: %w", op, err)
		}

		id := tr.open("sim.run", op, -1)
		proto := &tracedProto{Protocol: core.NewTreeBroadcast(treeMsg, core.RulePow2), t: tr, op: op, parent: id}
		inner, err := sim.NewScheduler("random")
		if err != nil {
			return nil, err
		}
		sched := &tracedSched{Scheduler: inner, t: tr, op: op, parent: id}
		if opts, err = w.simOpts(inst, sched); err != nil {
			return nil, err
		}
		var t *sim.Result
		dw := tr.run(id, func() { t, err = sim.Run(g, proto, opts) })
		if err != nil {
			return nil, fmt.Errorf("op %d traced run: %w", op, err)
		}

		ref := w.ref[inst]
		want := counters{steps: ref.steps, bits: ref.bits, sigma: ref.sigma, forced: b.ForcedSteps}
		if err := sameCounters(fmt.Sprintf("op %d bare run", op), countersOf(b), want); err != nil {
			return nil, err
		}
		if err := sameCounters(fmt.Sprintf("op %d traced run", op), countersOf(t), want); err != nil {
			return nil, err
		}
		if rep.PeakInFlight != t.Metrics.PeakInFlight || rep.MaxStateBits != t.MaxStateBits() {
			return nil, fmt.Errorf("op %d traced run: peak in flight %d, max state bits %d; untraced %d, %d",
				op, t.Metrics.PeakInFlight, t.MaxStateBits(), rep.PeakInFlight, rep.MaxStateBits)
		}
		bare, wrapped = append(bare, ms(db)), append(wrapped, ms(dw))
		facadeOver = append(facadeOver, ms(df-db))
		pops += int64(sched.pops)
		receives += proto.receives.Load()
		sends += proto.sends.Load()
		if op < treeInstances {
			exact = append(exact, t)
		}
	}
	ops := float64(traceTreePasses * treeInstances)
	out := exactLayers(exact)
	for k, v := range runtimeLayer(untraced.mem, len(untraced.samples)) {
		out[k] = v
	}
	out["sim.run_ms"] = medianMS(tr.perOp("sim.run"))
	out["sim.self_ms"] = medianMS(tr.self("sim.run"))
	out["sim.sched_ms"] = medianMS(tr.perOp("sim.sched.push", "sim.sched.pop"))
	out["sim.pops_per_op"] = float64(pops) / ops
	// Pop spans only, as totals over the traced ops: each sampled Pop span
	// stands for K pops.
	var popNS time.Duration
	for _, d := range tr.perOp("sim.sched.pop") {
		popNS += d
	}
	out["sim.sched_ns_per_pop"] = float64(popNS) / float64(pops)
	out["core.receive_ms"] = medianMS(tr.perOp("core.receive"))
	out["core.receive_ns_p50"] = median(tr.durations("core.receive"))
	out["core.sends_per_receive"] = float64(sends) / float64(receives)
	out["anonnet.facade_ms"] = median(facadeOver)
	out["graph.build_ms"] = median(w.buildMS)
	out["trace.overhead_frac"] = median(wrapped)/median(bare) - 1
	tr.summary(log)
	return out, nil
}

// exactLayers are the schedule-determined per-op counts over one pass of
// traced runs: means per op, and maxima for the paper's size measures.
func exactLayers(runs []*sim.Result) map[string]float64 {
	var steps, forced, peak, bits, sigma, steals, stolen float64
	var maxMsg, maxState int
	for _, r := range runs {
		steps += float64(r.Steps)
		forced += float64(r.ForcedSteps)
		peak += float64(r.Metrics.PeakInFlight)
		bits += float64(r.Metrics.TotalBits)
		sigma += float64(r.Metrics.AlphabetSize())
		steals += float64(r.Steals)
		stolen += float64(r.StolenEdges)
		maxMsg = max(maxMsg, r.Metrics.MaxMsgBits)
		maxState = max(maxState, r.MaxStateBits())
	}
	n := float64(len(runs))
	return map[string]float64{
		"sim.deliveries_per_op":   steps / n,
		"sim.forced_steps_per_op": forced / n,
		"sim.peak_in_flight":      peak / n,
		"core.total_bits_per_op":  bits / n,
		"core.sigma_g":            sigma / n,
		"core.max_msg_bits":       float64(maxMsg),
		"core.max_state_bits":     float64(maxState),
		"shard.steals":            steals / n,
		"shard.stolen_edges":      stolen / n,
	}
}
