// Package netrun executes anonymous protocols over real TCP connections:
// every vertex is a goroutine with its own listener on 127.0.0.1, every edge
// a dedicated TCP connection, and every message travels as actual bytes
// produced by the protocol's wire codec. It is the "does this survive a real
// transport" tier above the in-memory engines of package sim — same
// protocols, same verdicts, real sockets.
//
// Infrastructure vs. protocol knowledge: the runner wires connections to
// in-ports during setup (the physical cabling of the network); the protocol
// running on top still observes only (in-degree, out-degree, port numbers),
// exactly as the model requires.
//
// Each wiring is a transport under the sim.Wild core the concurrent engine
// runs on: the delivery step, metering, fault plan, telemetry and the
// in-flight counter whose zero is quiescence live in process, while payloads
// cross the loopback interface. Termination is the terminal's stopping
// predicate.
package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Engine adapts the TCP runner to the sim.Engine interface so callers can
// select the real-socket tier exactly like the in-memory engines. The codec
// turns protocol messages into wire bytes; opts carries the TCP-specific
// settings. Of sim.Options, the scheduler does not apply — the schedule here
// comes from the kernel's loopback stack — but the step limit, alphabet
// tracking, fault plan, telemetry and Observer all do. Events are serialized
// through a sim.SerializedObserver, so a kernel-born schedule can be recorded
// and replayed on the sequential engine (see internal/replay).
func Engine(codec protocol.Codec, opts Options) sim.Engine {
	return tcpEngine{codec: codec, opts: opts}
}

type tcpEngine struct {
	codec protocol.Codec
	opts  Options
}

func (e tcpEngine) Name() string { return "tcp" }

func (e tcpEngine) Run(g *graph.G, p protocol.Protocol, simOpts sim.Options) (*sim.Result, error) {
	opts := e.opts
	if simOpts.Observer != nil {
		// Tee rather than overwrite: an observer configured on the engine's
		// own Options keeps receiving events.
		simOpts.Observer = sim.TeeObserver(opts.Observer, simOpts.Observer)
	} else {
		simOpts.Observer = opts.Observer
	}
	if simOpts.Faults == nil {
		simOpts.Faults = opts.Faults
	}
	if simOpts.Obs == nil {
		simOpts.Obs = opts.Obs
	}
	if simOpts.Seed != 0 {
		opts.Seed = simOpts.Seed
	}
	return run(g, p, e.codec, opts, &simOpts)
}

// Options configures a TCP run.
type Options struct {
	// Timeout aborts the run if neither termination nor quiescence is
	// reached; 0 means a generous default.
	Timeout time.Duration
	// Observer, when non-nil, receives one causally consistent linearization
	// of the run's send/deliver events (serialized through a lock and sealed
	// when the verdict is decided), exactly like the concurrent engine's
	// observer stream.
	Observer sim.Observer
	// Faults is the deterministic fault plan of sim.Options, applied at the
	// socket tier: a dropped send is metered and observed but its frame
	// never hits the wire; a crashed vertex consumes frames without
	// processing them. The engine adapter takes the plan from the sim
	// options when they carry one, so fault plans behave identically across
	// all engines.
	Faults *sim.Faults
	// Obs, when non-nil, receives run telemetry (counter totals and the
	// wall-clock setup/io-loop phases). Like the concurrent engine, the
	// timeline here is wild — the kernel's schedule, not the seed's. The
	// engine adapter takes it from sim.Options.Obs when set.
	Obs *obs.Recorder
	// Shards >= 2 selects the sharded io-loop mode (see shard.go): vertices
	// are grouped by graph.PartitionGraph — the same partitioner and
	// ownership rule as the in-memory shard engine — each shard runs one
	// worker loop and one listener, and all cut-edge traffic between an
	// ordered shard pair is muxed over a single connection whose frames name
	// the edge explicitly. In-shard messages never touch a socket, so the
	// socket count follows the partition, not the graph, and the tier scales
	// to graphs the per-vertex wiring cannot open enough file descriptors
	// for. Shards <= 1 keeps the original goroutine-per-vertex,
	// connection-per-edge wiring.
	Shards int
	// Seed drives the partitioner in sharded mode (ignored otherwise). The
	// engine adapter copies sim.Options.Seed here when set, so the shard
	// layout follows the run's seed exactly like the in-memory shard engine.
	Seed int64
	// Chaos, when active, turns on deterministic socket disturbance (see
	// chaos.go): seeded per-frame latency jitter, lost first-write attempts,
	// and forced disconnects, healed by reconnect with bounded exponential
	// backoff and resend of unacked frames. Chaos disturbs only the
	// transport — verdict, visited set, and message accounting match an
	// undisturbed run. Applies to both wiring modes.
	Chaos *Chaos
}

const defaultTimeout = 2 * time.Minute

// ErrTimeout is returned when the run exceeds its wall-clock budget.
var ErrTimeout = errors.New("netrun: run timed out")

// Run executes p on g over TCP and returns a result compatible with the
// in-memory engines (Verdict, Visited, Metrics; Steps counts deliveries).
// Messages are metered by their encoded length on the wire.
func Run(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options) (*sim.Result, error) {
	return run(g, p, codec, opts, &sim.Options{Observer: opts.Observer, Faults: opts.Faults, Obs: opts.Obs})
}

// run executes p on g in the wiring opts selects; so carries the run options
// the kernel applies (step limit, alphabet tracking, faults, observer,
// telemetry).
func run(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options, so *sim.Options) (*sim.Result, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = defaultTimeout
	}
	if opts.Shards > 1 {
		return runSharded(g, p, codec, opts, so)
	}

	// Telemetry: the seed reported is 0 — the kernel's schedule is not
	// seeded (the sharded mode reports its partition seed instead).
	w, err := sim.NewWild(g, p, so, "wild-tcp", 0, 1)
	if err != nil {
		return nil, err
	}
	r := &runner{sockets{w: w, g: g, codec: codec}}
	if opts.Chaos.active() {
		r.chaos = opts.Chaos
	}
	return serve(r, &r.sockets, g.NumVertices(), int(g.Root()), opts.Timeout, so.Obs)
}

// wiring is one way of cabling a run to sockets: a worker per vertex, or a
// worker per partition shard.
type wiring interface {
	// listen opens the listeners and the workers' inboxes.
	listen() error
	// dial starts the accept loops and opens the outgoing connections.
	dial() error
	// transport returns the transport worker i sends through.
	transport(i int) sim.Transport
}

// serve runs a wired run: it opens the sockets, gives each of the workers a
// lane over its transport, injects sigma0 on the root worker's lane before
// any worker starts, lets every worker drain its inbox, and waits for the
// verdict under the wall-clock budget. When it returns, every goroutine has
// exited.
func serve(wr wiring, c *sockets, workers, root int, timeout time.Duration, rec *obs.Recorder) (*sim.Result, error) {
	setupDone := obsStart(rec, "setup")
	lanes := make([]*sim.Lane, workers)
	setup := func() error {
		if err := wr.listen(); err != nil {
			return err
		}
		if err := wr.dial(); err != nil {
			return err
		}
		for i := range lanes {
			lanes[i] = c.w.Lane(wr.transport(i))
		}
		return c.w.Inject(lanes[root])
	}
	if err := setup(); err != nil {
		c.closeAll()
		return nil, err
	}
	for i := range lanes {
		c.w.Go(func() { c.w.Serve(lanes[i], c.inboxes[i]) })
	}
	setupDone()

	ioDone := obsStart(rec, "io-loop")
	defer ioDone()
	timer := time.AfterFunc(timeout, func() {
		c.w.Finish(0, fmt.Errorf("%w after %s on %s", ErrTimeout, timeout, c.g))
	})
	defer timer.Stop()
	return c.w.Wait(c.closeAll)
}

// sockets is the state both wirings share, indexed by worker (vertex or
// shard): the run core, listeners, outgoing connections — or under chaos
// their senders — and the inboxes the workers drain.
type sockets struct {
	w     *sim.Wild
	g     *graph.G
	codec protocol.Codec

	listeners []net.Listener
	// conns[a][b] is worker a's outgoing connection b (non-chaos mode only;
	// chaos mode routes sends through senders instead).
	conns [][]net.Conn
	// inboxes: each worker drains one unbounded queue fed by
	// per-connection reader goroutines. Unbounded matches the model's
	// unbounded links and rules out backpressure deadlocks on cycles.
	inboxes []*sim.Mailbox

	// Chaos mode (nil slices when off): senders[a][b] owns connection b's
	// channel with its frame log and reconnect machinery; recv serializes a
	// channel's incoming connections and tracks its delivered-frame count.
	chaos   *Chaos
	senders [][]*chaosSender
	recv    [][]*chaosRecv
}

// write sends frame on worker a's connection b, which carries edge e. A
// write error fails the run, unless the run is already over (shutdown
// closed the connection under the writer).
func (c *sockets) write(a, b int, e graph.Edge, frame []byte) {
	var err error
	if c.senders != nil {
		err = c.senders[a][b].send(frame)
	} else {
		_, err = c.conns[a][b].Write(frame)
	}
	if err != nil && !errors.Is(err, errChaosStopped) && !c.w.Stopped() {
		c.w.Finish(0, fmt.Errorf("netrun: write on edge %d->%d: %w", e.From, e.To, err))
	}
}

// closeAll tears the wiring down, unblocking every goroutine of the run.
func (c *sockets) closeAll() {
	c.w.Finish(sim.Quiescent, nil) // no-op if already finished
	for _, l := range c.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, row := range c.conns {
		for _, conn := range row {
			if conn != nil {
				conn.Close()
			}
		}
	}
	for _, row := range c.senders {
		for _, s := range row {
			if s != nil {
				s.close()
			}
		}
	}
	for _, ib := range c.inboxes {
		if ib != nil {
			ib.Close()
		}
	}
}

// runner is the per-vertex wiring: a listener per vertex with in-edges, a
// connection per edge, a worker per vertex.
type runner struct{ sockets }

// obsStart opens a wall-clock phase on rec; safe on a nil recorder.
func obsStart(rec *obs.Recorder, name string) func() {
	if rec == nil {
		return func() {}
	}
	return rec.StartPhase(name)
}

// listen opens one TCP listener per vertex with incoming edges.
func (r *runner) listen() error {
	nV := r.g.NumVertices()
	r.listeners = make([]net.Listener, nV)
	r.inboxes = make([]*sim.Mailbox, nV)
	if r.chaos != nil {
		r.recv = make([][]*chaosRecv, nV)
	}
	for v := 0; v < nV; v++ {
		r.inboxes[v] = sim.NewMailbox()
		if r.g.InDegree(graph.VertexID(v)) == 0 {
			continue
		}
		if r.chaos != nil {
			r.recv[v] = make([]*chaosRecv, r.g.InDegree(graph.VertexID(v)))
			for port := range r.recv[v] {
				r.recv[v][port] = &chaosRecv{}
			}
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for vertex %d: %w", v, err)
		}
		r.listeners[v] = l
	}
	return nil
}

// dial establishes one connection per edge. The dialer sends a one-shot
// handshake naming the target in-port; the accept loop routes the
// connection's frames to the vertex inbox under that port.
func (r *runner) dial() error {
	nV := r.g.NumVertices()
	// Accept loops first. Chaos mode accepts forever (reconnects arrive at
	// any time); non-chaos mode accepts exactly the in-degree.
	for v := 0; v < nV; v++ {
		if r.listeners[v] == nil {
			continue
		}
		v := graph.VertexID(v)
		if r.chaos != nil {
			r.w.Go(func() { r.chaosAcceptLoop(v) })
		} else {
			r.w.Go(func() { r.acceptLoop(v, r.g.InDegree(v)) })
		}
	}
	if r.chaos != nil {
		return r.dialChaos()
	}
	// Dial every edge, walking the CSR out-adjacency in port order.
	r.conns = make([][]net.Conn, nV)
	for v := 0; v < nV; v++ {
		outIDs := r.g.OutEdgeIDs(graph.VertexID(v))
		r.conns[v] = make([]net.Conn, len(outIDs))
		for j, eid := range outIDs {
			e := r.g.Edge(eid)
			addr := r.listeners[e.To].Addr().String()
			conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return fmt.Errorf("netrun: dial edge %d->%d: %w", e.From, e.To, err)
			}
			// Handshake: the in-port this cable plugs into.
			var hs [4]byte
			binary.BigEndian.PutUint32(hs[:], uint32(e.ToPort))
			if _, err := conn.Write(hs[:]); err != nil {
				conn.Close()
				return fmt.Errorf("netrun: handshake %d->%d: %w", e.From, e.To, err)
			}
			r.conns[v][j] = conn
		}
	}
	return nil
}

// dialChaos builds one chaosSender per edge: the logical channel is the edge
// itself, the identity handshake names the in-port, and the initial connect
// runs the resume protocol (expecting a zero count).
func (r *runner) dialChaos() error {
	nV := r.g.NumVertices()
	r.senders = make([][]*chaosSender, nV)
	for v := 0; v < nV; v++ {
		outIDs := r.g.OutEdgeIDs(graph.VertexID(v))
		r.senders[v] = make([]*chaosSender, len(outIDs))
		for j, eid := range outIDs {
			e := r.g.Edge(eid)
			s := &chaosSender{
				chaos:   r.chaos,
				channel: uint64(eid),
				addr:    r.listeners[e.To].Addr().String(),
				stopped: r.w.Stopped,
			}
			binary.BigEndian.PutUint32(s.hello[:], uint32(e.ToPort))
			if err := s.connect(); err != nil {
				return fmt.Errorf("netrun: chaos dial edge %d->%d: %w", e.From, e.To, err)
			}
			r.senders[v][j] = s
		}
	}
	return nil
}

// chaosAcceptLoop accepts connections for vertex v until the listener
// closes at shutdown: under chaos, reconnects arrive throughout the run, so
// there is no fixed accept count. Each connection is handled off-loop so one
// channel's serialization never blocks another channel's reconnect.
func (r *runner) chaosAcceptLoop(v graph.VertexID) {
	for {
		conn, err := r.listeners[v].Accept()
		if err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: accept at vertex %d: %w", v, err))
			}
			return
		}
		r.w.Go(func() { r.chaosHandle(v, conn) })
	}
}

// chaosHandle serves one accepted connection: identity handshake in, resume
// count out (serialized per channel), then the counting read loop until the
// connection dies. A connection abandoned before or during the handshake is
// dropped silently — the dialer's backoff loop owns the retry.
func (r *runner) chaosHandle(v graph.VertexID, conn net.Conn) {
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	port := int(binary.BigEndian.Uint32(hs[:]))
	if port < 0 || port >= r.g.InDegree(v) {
		r.w.Finish(0, fmt.Errorf("netrun: vertex %d: bad handshake port %d", v, port))
		return
	}
	rc := r.recv[v][port]
	eid := r.g.InEdge(v, port).ID
	// Serialize per channel: wait for the previous connection's read loop to
	// drain to EOF so the count quoted below is final.
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := rc.ackResume(conn); err != nil {
		return
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Torn down (chaos or shutdown): the next connection resumes
			// from rc.received.
			return
		}
		bits := int(binary.BigEndian.Uint32(hdr[:]))
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			// Torn mid-frame: not counted, so the sender replays it whole.
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: decode at vertex %d: %w", v, err))
			return
		}
		r.inboxes[v].Push(sim.Flight{Edge: eid, Msg: msg})
		rc.received++
	}
}

func (r *runner) acceptLoop(v graph.VertexID, expected int) {
	for i := 0; i < expected; i++ {
		conn, err := r.listeners[v].Accept()
		if err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: accept at vertex %d: %w", v, err))
			}
			return
		}
		var hs [4]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: handshake read at vertex %d: %w", v, err))
			conn.Close()
			return
		}
		port := int(binary.BigEndian.Uint32(hs[:]))
		if port < 0 || port >= r.g.InDegree(v) {
			r.w.Finish(0, fmt.Errorf("netrun: vertex %d: bad handshake port %d", v, port))
			conn.Close()
			return
		}
		r.w.Go(func() { r.readLoop(v, r.g.InEdge(v, port).ID, conn) })
	}
}

// readLoop parses frames off the connection of in-edge eid into v and feeds
// v's inbox. Frame format: uint32 bit length, then ceil(bits/8) payload
// bytes.
func (r *runner) readLoop(v graph.VertexID, eid graph.EdgeID, conn net.Conn) {
	defer conn.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Connection closed: either shutdown or the peer is done
			// sending. Both are normal ends of stream.
			return
		}
		bits := int(binary.BigEndian.Uint32(hdr[:]))
		nbytes := (bits + 7) / 8
		buf := make([]byte, nbytes)
		if _, err := io.ReadFull(conn, buf); err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: short frame at vertex %d: %w", v, err))
			}
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: decode at vertex %d: %w", v, err))
			return
		}
		r.inboxes[v].Push(sim.Flight{Edge: eid, Msg: msg})
	}
}

func (r *runner) transport(int) sim.Transport { return &vertexWire{r: r} }

// vertexWire is a vertex loop's transport in the per-vertex wiring: every
// out-edge is its own connection carrying [bit length][payload] frames.
type vertexWire struct {
	r     *runner
	frame []byte
}

// Frame implements sim.Wire.
func (t *vertexWire) Frame(e graph.EdgeID, msg protocol.Message) (int, error) {
	data, bits, err := t.r.codec.Encode(msg)
	if err != nil {
		return 0, fmt.Errorf("netrun: encode on edge %d: %w", e, err)
	}
	t.frame = make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(t.frame[:4], uint32(bits))
	copy(t.frame[4:], data)
	return bits, nil
}

// Carry writes the frame Frame built on the edge's connection.
func (t *vertexWire) Carry(eid graph.EdgeID, _ protocol.Message) bool {
	e := t.r.g.Edge(eid)
	t.r.write(int(e.From), e.FromPort, e, t.frame)
	return true
}
