package sim

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// RunSynchronous executes p on g under the synchronous model the paper
// mentions as a direct extension (Section 2): computation proceeds in global
// rounds; every message sent in round k is delivered at the start of round
// k+1. This engine adds a time measure — Result.Rounds — that the
// asynchronous model deliberately has no counterpart for.
//
// Verdicts (Terminated / Quiescent) necessarily agree with the asynchronous
// engines: a synchronous schedule is one particular asynchronous schedule,
// and the protocols' outcomes are schedule-independent. Tests assert this.
func RunSynchronous(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	k, err := NewKernel(g, p, &opts)
	if err != nil {
		return nil, err
	}

	// Telemetry: one track; each global round is one superstep row, so the
	// timeline charts queue growth round by round. "sync" matches the
	// scheduler name recorded traces carry for this engine.
	var tr *obs.Track
	if opts.Obs != nil {
		opts.Obs.Configure(p.Name(), "sync", opts.Seed, 1)
		tr = opts.Obs.Tracks(1)[0]
		stop := opts.Obs.StartPhase("rounds")
		defer stop()
	}

	var next rounds
	lane := k.Lane(tr, &next)
	if err := k.Inject(lane); err != nil {
		return nil, err
	}
	res := k.Result()
	for len(next) > 0 {
		current := next
		next = nil
		res.Rounds++
		roundStart := lane.Steps
		for _, f := range current {
			if err := k.Admit(lane.Steps); err != nil {
				return k.Close(0), err
			}
			done, err := lane.Deliver(f.Edge, f.Msg, false)
			if err != nil {
				return k.Close(0), err
			}
			if done {
				opts.Obs.Superstep([]int64{int64(lane.Steps - roundStart)})
				return k.Close(Terminated), nil
			}
		}
		opts.Obs.Superstep([]int64{int64(lane.Steps - roundStart)})
	}
	return k.Close(Quiescent), nil
}

// rounds is the synchronous engine's transport: the next round's deliveries.
type rounds []Flight

func (r *rounds) Carry(e graph.EdgeID, msg protocol.Message) bool {
	*r = append(*r, Flight{Edge: e, Msg: msg})
	return true
}
