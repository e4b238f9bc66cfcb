package sim

import (
	"repro/internal/graph"
	"repro/internal/msgq"
	"repro/internal/protocol"
)

// Local is the event-driven schedule of the sequential engine, which the
// sharded engine runs once per shard: per-edge FIFO queues over pooled
// chunks, and an adversary (a Scheduler) that repeatedly picks a pending edge
// whose oldest message is delivered next. An edge is registered with the
// scheduler exactly when its front message is deliverable, so a delivery
// step costs O(1) or O(log |pending|) depending on the adversary.
//
// Forced choices are batched: when the adversary's next pick is provably the
// edge just delivered on (the scheduler is otherwise empty, or a stack
// scheduler saw no new registrations), Drain keeps delivering from it without
// a Push/Pop round-trip. Batching engages only for schedulers that declare
// it safe (BatchCapable) and never changes the delivery sequence.
type Local struct {
	// Sched is the adversary. Outside Drain the sharded engine's barrier may
	// pop and re-push its entries (work donation).
	Sched Scheduler

	queues    []msgq.Queue
	sendSeq   uint64 // local send-sequence number, drives HeadSeq
	newPushes int    // scheduler registrations since the last delivery began

	batchOn bool
	caps    BatchCaps
	defPush DeferredPusher
}

// NewLocal returns a schedule that delivers from queues under sched. Shards
// of one run share the queues slice; each edge's queue belongs to the shard
// delivering to its head. noBatch disables forced-choice batching.
func NewLocal(sched Scheduler, queues []msgq.Queue, noBatch bool) *Local {
	l := &Local{Sched: sched, queues: queues}
	if !noBatch {
		if bc, ok := sched.(BatchCapable); ok {
			l.caps = bc.BatchCaps()
			l.defPush, _ = sched.(DeferredPusher)
			l.batchOn = l.caps.PushOrderFree || l.defPush != nil
		}
	}
	return l
}

// Carry appends msg to e's queue under the next local send-sequence number
// and registers e with the scheduler when msg is its new front. As a
// Transport it serves a run with one Local, where every send is local.
func (l *Local) Carry(e graph.EdgeID, msg protocol.Message) bool {
	seq := l.sendSeq
	l.sendSeq++
	q := &l.queues[e]
	q.Push(msg, seq)
	if q.Len() == 1 {
		l.Sched.Push(PendingEdge{Edge: e, HeadSeq: seq})
		l.newPushes++
	}
	return true
}

// Pending returns e re-registered at its current front message.
func (l *Local) Pending(e graph.EdgeID) PendingEdge {
	return PendingEdge{Edge: e, HeadSeq: l.queues[e].FrontSeq()}
}

// Drain delivers on lane until the scheduler runs dry, budget deliveries
// have been made, the terminal's predicate holds (done) or a delivery fails.
// When the budget runs out mid-batch the in-hand edge is re-registered, so
// its traffic survives into a later Drain.
func (l *Local) Drain(lane *Lane, budget int) (done bool, err error) {
	sched := l.Sched
	n := 0
	for sched.Len() > 0 && n < budget {
		e := sched.Pop()
		lane.tr.Popped()
		forced := false
		for {
			if n >= budget {
				sched.Push(l.Pending(e))
				return false, nil
			}
			n++
			msg := l.queues[e].Pop()
			pendingHere := l.queues[e].Len() > 0
			if pendingHere && !l.batchOn {
				// Legacy ordering: re-register before processing the
				// delivery, as insertion-order-sensitive schedulers (random,
				// rr-vertex, replay scripts) require.
				sched.Push(l.Pending(e))
			}
			l.newPushes = 0
			if done, err := lane.Deliver(e, msg, forced); done || err != nil {
				return done, err
			}
			if !pendingHere || !l.batchOn {
				break
			}
			// Forced-choice decision: e still holds messages and was not
			// re-registered. If the adversary provably must pick e next,
			// keep draining without a Push/Pop round-trip.
			if sched.Len() == 0 || (l.caps.ForcedWhenQuiet && l.newPushes == 0) {
				// e is the only pending edge anywhere, or stack semantics
				// with no registrations since our Pop would top it again.
				forced = true
				continue
			}
			if l.caps.PushOrderFree {
				sched.Push(l.Pending(e))
			} else {
				l.defPush.PushDeferred(l.Pending(e), l.newPushes)
			}
			break
		}
	}
	return false, nil
}
