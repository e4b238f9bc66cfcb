package sim

import (
	"repro/internal/graph"
	"repro/internal/protocol"
)

// RunConcurrent executes p on g with one goroutine per vertex and an
// unbounded mailbox per vertex. Message interleaving comes from the Go
// scheduler, so repeated runs exercise genuinely different asynchronous
// schedules. Per-edge FIFO holds because each edge has a single sending
// goroutine and mailboxes preserve insertion order.
//
// Options.Observer, when set, receives the wild schedule through a
// SerializedObserver: one causally consistent linearization of the run's
// events, sealed the instant the verdict is decided. Recording that stream
// (replay.Recorder) is what makes a one-off Go-runtime schedule replayable
// on the sequential engine.
//
// Termination is detected exactly as in the paper: the terminal's stopping
// predicate S. Non-termination is detected by distributed quiescence on the
// Wild core's in-flight counter.
func RunConcurrent(g *graph.G, p protocol.Protocol, opts Options) (*Result, error) {
	// Telemetry: one track, serialized by the Wild core because workers
	// race. This engine's timelines are wild — a function of the Go
	// scheduler, not the seed — so only this run's own totals are meaningful.
	w, err := NewWild(g, p, &opts, "wild-concurrent", opts.Seed, 1)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		stop := opts.Obs.StartPhase("run")
		defer stop()
	}
	boxes := &mailboxes{g: g, boxes: make([]*Mailbox, g.NumVertices())}
	lanes := make([]*Lane, g.NumVertices())
	for v := range boxes.boxes {
		boxes.boxes[v] = NewMailbox()
		lanes[v] = w.Lane(boxes)
	}
	if err := w.Inject(lanes[g.Root()]); err != nil {
		return nil, err
	}
	for v := range lanes {
		w.Go(func() { w.Serve(lanes[v], boxes.boxes[v]) })
	}
	return w.Wait(func() {
		for _, mb := range boxes.boxes {
			mb.Close()
		}
	})
}

// mailboxes is the concurrent engine's transport: a send lands in its head
// vertex's mailbox.
type mailboxes struct {
	g     *graph.G
	boxes []*Mailbox
}

func (m *mailboxes) Carry(e graph.EdgeID, msg protocol.Message) bool {
	m.boxes[m.g.Edge(e).To].Push(Flight{Edge: e, Msg: msg})
	return true
}
