package sim

import (
	"repro/internal/graph"
	"repro/internal/msgq"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Run executes p on g under the event-driven engine and returns the result.
//
// Asynchrony model: every sent message becomes an in-flight event on its
// edge; an adversary (Options.Scheduler, or the legacy Options.Order)
// repeatedly picks a pending edge and delivers the oldest message on it
// (links are FIFO). The run ends when the terminal's stopping predicate
// holds (Terminated) or no events remain (Quiescent).
//
// The schedule is one Local — indexed pending-edge set, pooled per-edge
// queues, forced-choice batch draining — over the whole graph, so a run
// here is exactly the sharded engine's run at one shard.
func Run(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	k, err := NewKernel(g, p, &opts)
	if err != nil {
		return nil, err
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = schedulerForOrder(opts.Order)
	}

	// Telemetry: one track (this engine is the one-shard schedule), hooked
	// at the same positions as a shard's drain, so the timeline of a run
	// here is byte-identical to the sharded engine's at one shard. The whole
	// run is a single superstep. All hooks are nil-receiver no-ops when
	// telemetry is off.
	var tr *obs.Track
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), sched.Name(), opts.Seed, 1)
		tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase("deliver")
		defer stop()
	}

	sched.Reset(SchedContext{Graph: g, Seed: opts.Seed, Visited: k.Visited})
	msgq.Warm()
	queues := make([]msgq.Queue, g.NumEdges())
	defer func() {
		for e := range queues {
			queues[e].Release()
		}
	}()
	loc := NewLocal(sched, queues, opts.NoBatchDrain)
	lane := k.Lane(tr, loc)
	if err := k.Inject(lane); err != nil {
		return nil, err
	}
	done, err := loc.Drain(lane, k.MaxSteps())
	opts.Obs.Superstep([]int64{int64(lane.Steps)})
	switch {
	case err != nil:
		return k.Close(0), err
	case done:
		return k.Close(Terminated), nil
	case sched.Len() > 0:
		return k.Close(0), k.Admit(lane.Steps)
	}
	return k.Close(Quiescent), nil
}
