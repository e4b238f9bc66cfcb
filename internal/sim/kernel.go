package sim

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Kernel is the engine-independent half of a run: the paper's vertex step,
// written once. It builds the protocol's nodes and the terminal's control
// handle, owns the visited set, the compiled fault plan, the observer and
// the step budget, injects sigma0, and runs the delivery step — a message
// arrives on an in-port, the node updates its state and emits at most one
// message per out-port, each emission is metered, observed, counted and
// passed through the fault plan, and the terminal's predicate is checked.
//
// Engines differ only in the adversary that picks the next delivery. Each
// one keeps its scheduling policy (pop order, rounds, supersteps, the Go
// runtime or the network) and a Transport that carries a surviving send to
// its head: a per-edge queue, a round buffer, a shard outbox, a mailbox or a
// socket frame.
type Kernel struct {
	g        *graph.G
	proto    protocol.Protocol
	nodes    []protocol.Node
	term     protocol.Terminal
	faults   *FaultState
	observer Observer
	maxSteps int
	res      *Result
	lanes    []*Lane
}

// Transport carries sends that survived the fault plan toward their heads.
type Transport interface {
	// Carry puts msg on edge e's link. It reports whether the message
	// entered a queue that the sending lane's track counts; the sharded
	// engine's cross-shard sends return false, because the destination
	// shard counts them when its merge ingests them.
	Carry(e graph.EdgeID, msg protocol.Message) bool
}

// Flight is one message on its way across an edge.
type Flight struct {
	Edge graph.EdgeID
	Msg  protocol.Message
}

// Wire is a Transport whose links carry encoded frames (the TCP engine). A
// wire send is metered by its encoded length, which includes the codec's
// framing, instead of by Message.Bits.
type Wire interface {
	Transport
	// Frame encodes msg for edge e and returns its length in bits. Unless
	// the fault plan drops the send, the next Carry transmits that frame.
	Frame(e graph.EdgeID, msg protocol.Message) (bits int, err error)
}

// NewKernel builds the per-run state shared by every engine: one node per
// vertex with the role the graph assigns it, the result skeleton with the
// root visited, and the compiled fault plan. It fails when the terminal's
// node does not implement protocol.Terminal or the fault plan does not fit g.
func NewKernel(g *graph.G, p protocol.Protocol, opts *Options) (*Kernel, error) {
	nV := g.NumVertices()
	nodes := make([]protocol.Node, nV)
	var term protocol.Terminal
	for v := 0; v < nV; v++ {
		role := protocol.RoleInternal
		switch graph.VertexID(v) {
		case g.Root():
			role = protocol.RoleRoot
		case g.Terminal():
			role = protocol.RoleTerminal
		}
		n := p.NewNode(g.InDegree(graph.VertexID(v)), g.OutDegree(graph.VertexID(v)), role)
		if role == protocol.RoleTerminal {
			t, ok := n.(protocol.Terminal)
			if !ok {
				return nil, fmt.Errorf("sim: protocol %q terminal node does not implement Terminal", p.Name())
			}
			term = t
		}
		nodes[v] = n
	}
	faults, err := NewFaultState(g, opts)
	if err != nil {
		return nil, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	k := &Kernel{
		g:        g,
		proto:    p,
		nodes:    nodes,
		term:     term,
		faults:   faults,
		observer: opts.Observer,
		maxSteps: maxSteps,
		res: &Result{
			Visited: make([]bool, nV),
			Nodes:   nodes,
			Metrics: newMetrics(g.NumEdges(), opts),
		},
	}
	k.res.Visited[g.Root()] = true
	return k, nil
}

// Result returns the run's result. Engines fill the schedule-specific
// fields (Rounds, Steals) on it; Close completes the rest.
func (k *Kernel) Result() *Result { return k.res }

// Visited reports whether v has received the broadcast; it is the
// SchedContext.Visited view schedulers get.
func (k *Kernel) Visited(v graph.VertexID) bool { return k.res.Visited[v] }

// MaxSteps returns the run's step budget (Options.MaxSteps or the default).
func (k *Kernel) MaxSteps() int { return k.maxSteps }

// Admit checks the step budget before a delivery: it returns ErrStepLimit,
// wrapped with the run's context, once steps deliveries have used it up.
func (k *Kernel) Admit(steps int) error {
	if steps < k.maxSteps {
		return nil
	}
	return fmt.Errorf("%w (%d steps, graph %s, protocol %s)", ErrStepLimit, steps, k.g, k.proto.Name())
}

// Serialize routes the observer through a SerializedObserver, for engines
// whose events come from several goroutines or shards, and returns the
// wrapper so the engine can seal it when the verdict is decided. It returns
// nil when the run has no observer.
func (k *Kernel) Serialize() *SerializedObserver {
	s := NewSerializedObserver(k.observer)
	if s != nil {
		k.observer = s
	}
	return s
}

// Lane returns the run's only lane: it meters straight into Result().Metrics.
// The sequential and synchronous engines run every delivery on it.
func (k *Kernel) Lane(tr *obs.Track, t Transport) *Lane {
	return k.newLane(&k.res.Metrics, tr, t)
}

// Partial returns a lane for one of several sequential executors of the
// run (a shard, a worker goroutine). It meters into its own partial, which
// writes the per-edge slots directly — every edge has one sending lane at a
// time — and keeps its own totals and alphabet, merged by Close.
func (k *Kernel) Partial(tr *obs.Track, t Transport) *Lane {
	return k.newLane(k.res.Metrics.partial(), tr, t)
}

func (k *Kernel) newLane(m *Metrics, tr *obs.Track, t Transport) *Lane {
	l := &Lane{k: k, m: m, tr: tr, t: t}
	l.wire, _ = t.(Wire)
	k.lanes = append(k.lanes, l)
	return l
}

// Inject sends sigma0 on the root's out-edges through l.
func (k *Kernel) Inject(l *Lane) error {
	inits, err := InitialMessages(k.g, k.proto)
	if err != nil {
		return err
	}
	for j, init := range inits {
		if init == nil {
			continue
		}
		if err := l.send(k.g.OutEdge(k.g.Root(), j).ID, init); err != nil {
			return err
		}
	}
	return nil
}

// Close completes the result once every lane has stopped: it sums the
// lanes' steps, merges their metering partials, materializes the alphabet
// views, reports the fault plan's drops and churn, and records the verdict
// (v is 0 when the run failed) with the terminal's output.
func (k *Kernel) Close(v Verdict) *Result {
	res := k.res
	res.Steps, res.ForcedSteps = 0, 0
	for _, l := range k.lanes {
		res.Steps += l.Steps
		res.ForcedSteps += l.Forced
		if l.m != &res.Metrics {
			res.Metrics.merge(l.m)
		}
	}
	res.Metrics.finalize()
	res.Dropped = k.faults.Dropped()
	res.Churn = k.faults.ChurnReport()
	res.Verdict = v
	if v == Terminated {
		res.Output = k.term.Output()
	}
	return res
}

// Lane is one sequential executor of kernel steps: the whole run on the
// sequential and synchronous engines, one shard of the sharded engines, one
// worker goroutine of the concurrent and TCP engines. It carries the lane's
// metering, its telemetry track and its transport; only its owner calls it.
type Lane struct {
	k    *Kernel
	m    *Metrics
	tr   *obs.Track
	t    Transport
	wire Wire

	// Wild lanes (see Wild) share one track across goroutines behind mu and
	// count their sends in flight on the run's quiescence counter.
	mu       *sync.Mutex
	inFlight *counter

	// Steps and Forced count the lane's deliveries and, of those, the ones
	// the schedule made as forced choices.
	Steps  int
	Forced int
}

// Track returns the lane's telemetry track (nil when telemetry is off).
func (l *Lane) Track() *obs.Track { return l.tr }

// InFlight returns the lane's sends put in flight minus its deliveries. The
// sum over a run's lanes is the global in-flight count whenever no lane is
// mid-delivery.
func (l *Lane) InFlight() int { return l.m.curInFlight }

// Deliver runs one delivery step: msg arrives on edge e. A crash-stopped
// head consumes it unprocessed; otherwise the head is marked visited, its
// node receives msg, and every output goes through the send path. forced
// marks a delivery the schedule made without a choice. Deliver reports
// whether the terminal's stopping predicate now holds.
func (l *Lane) Deliver(e graph.EdgeID, msg protocol.Message, forced bool) (bool, error) {
	k := l.k
	l.Steps++
	if forced {
		l.Forced++
	}
	l.m.delivered()
	edge := k.g.Edge(e)
	crashed := k.faults.CrashDelivery(edge.To)
	if !crashed {
		k.res.Visited[edge.To] = true
	}
	if k.observer != nil {
		k.observer.OnDeliver(l.Steps, e, msg)
	}
	if crashed {
		l.delivered(forced, true)
		return false, nil
	}
	outs, err := k.nodes[edge.To].Receive(msg, edge.ToPort)
	if err != nil {
		return false, fmt.Errorf("sim: vertex %d receive: %w", edge.To, err)
	}
	if outs != nil && len(outs) != k.g.OutDegree(edge.To) {
		return false, fmt.Errorf("sim: vertex %d returned %d outputs, out-degree is %d",
			edge.To, len(outs), k.g.OutDegree(edge.To))
	}
	outIDs := k.g.OutEdgeIDs(edge.To)
	for j, out := range outs {
		if out == nil {
			continue
		}
		if err := l.send(outIDs[j], out); err != nil {
			return false, err
		}
	}
	l.delivered(forced, false)
	return edge.To == k.g.Terminal() && k.term.Done(), nil
}

// send meters and observes one emission, then applies the fault plan: a
// dropped send is counted but never carried, a surviving one goes to the
// transport.
func (l *Lane) send(e graph.EdgeID, msg protocol.Message) error {
	var bits int
	if l.wire != nil {
		b, err := l.wire.Frame(e, msg)
		if err != nil {
			return err
		}
		bits = b
	} else {
		bits = msg.Bits()
	}
	l.m.meter(e, msg, bits)
	if l.k.observer != nil {
		// Observed before the transport makes the message deliverable, so a
		// serialized stream sees every send ahead of its delivery.
		l.k.observer.OnSend(e, msg)
	}
	if l.k.faults.DropSend(e) {
		l.count(true, false)
		return nil
	}
	l.m.sent()
	if l.inFlight != nil {
		// Wild lane: count the message in flight and enqueued before it can
		// be delivered on another goroutine, so the quiescence counter never
		// reads zero early and no track sample sees a delivery ahead of its
		// enqueue. Wild transports enqueue every send.
		l.inFlight.inc()
		l.count(false, true)
		l.t.Carry(e, msg)
		return nil
	}
	l.count(false, l.t.Carry(e, msg))
	return nil
}

// count records one send on the lane's track: dropped by the fault plan, or
// enqueued on a queue the track counts.
func (l *Lane) count(dropped, enqueued bool) {
	if l.tr != nil {
		l.countOn(dropped, enqueued)
	}
}

func (l *Lane) countOn(dropped, enqueued bool) {
	l.lock()
	l.tr.Send()
	if dropped {
		l.tr.Dropped()
	} else if enqueued {
		l.tr.Enqueued()
	}
	l.unlock()
}

// delivered closes out one delivery on the lane's track, after the sends it
// triggered were counted.
func (l *Lane) delivered(forced, crashed bool) {
	if l.tr != nil {
		l.deliveredOn(forced, crashed)
	}
}

func (l *Lane) deliveredOn(forced, crashed bool) {
	l.lock()
	l.tr.Delivered(forced, crashed)
	l.unlock()
}

// lock and unlock guard the track of a wild lane, which other goroutines'
// lanes share.
func (l *Lane) lock() {
	if l.mu != nil {
		l.mu.Lock()
	}
}

func (l *Lane) unlock() {
	if l.mu != nil {
		l.mu.Unlock()
	}
}
