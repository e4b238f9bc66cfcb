package netrun

// This file is the sharded io-loop mode of the TCP tier (Options.Shards >=
// 2). The goroutine-per-vertex, connection-per-edge wiring in netrun.go is
// faithful to the model but linear in sockets: |V| listeners and |E|
// connections cap the graph sizes the tier can open file descriptors for.
// Sharded mode keeps the transport real while making the socket count a
// function of the PARTITION, not the graph: vertices are grouped by
// graph.PartitionGraph — the same partitioner and ownership rule as the
// in-memory shard engine — each shard runs ONE worker goroutine draining one
// inbox, ONE listener accepts the shard's incoming connections, and all
// cut-edge traffic between an ordered shard pair shares a single muxed
// connection whose frames carry the edge ID explicitly:
//
//	[edge ID uint32][bit length uint32][ceil(bits/8) payload bytes]
//
// In-shard messages skip the socket layer entirely — the locality dividend
// the partitioner is optimized for. Per-edge FIFO still holds: an in-shard
// edge is a FIFO append to the owner's inbox, and a cut edge rides one TCP
// stream, which is order-preserving.
//
// The ownership rule is what keeps the fault and visited slots race-free
// without per-vertex locks: an edge's tail belongs to exactly one shard, so
// only that shard's worker (or the pre-worker injection) sends on it, and a
// head's owner is the only worker that delivers to it — per-edge drop
// quotas, per-vertex crash quotas, Visited, and the node states are all
// single-writer.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// shardHdrLen is the muxed frame header: edge ID, then payload bit length.
const shardHdrLen = 8

// shardRunner is the sharded wiring: a worker and a listener per partition
// shard, one muxed connection per ordered shard pair with cut traffic
// (conns[src][dst]; after injection only shard src's worker writes to it),
// and the inbox of shard s fed by its reader goroutines and by its own
// worker's in-shard sends. Under chaos the logical channel is the ordered
// shard pair: senders[src][dst] owns its stream, recv[dst][src] its
// receiving side.
type shardRunner struct {
	sockets
	part *graph.Partition
	// need[src][dst] records which ordered shard pairs exchange traffic; it
	// doubles as handshake validation on accept.
	need [][]bool
}

// runSharded executes p on g in sharded mode. The caller (run) has already
// applied option defaults and guaranteed opts.Shards >= 2.
func runSharded(g *graph.G, p protocol.Protocol, codec protocol.Codec, opts Options, so *sim.Options) (*sim.Result, error) {
	part := graph.PartitionGraph(g, opts.Shards, opts.Seed)
	// Telemetry: the kernel's schedule is still wild, but the shard layout
	// is seeded — report the partition seed and shard count as provenance.
	w, err := sim.NewWild(g, p, so, "wild-tcp", opts.Seed, part.K)
	if err != nil {
		return nil, err
	}
	r := &shardRunner{sockets: sockets{w: w, g: g, codec: codec}, part: part}
	if opts.Chaos.active() {
		r.chaos = opts.Chaos
	}
	return serve(r, &r.sockets, part.K, part.Of[g.Root()], opts.Timeout, so.Obs)
}

// listen builds the shard inboxes, the pair-traffic matrix, and one listener
// per shard with incoming cut edges.
func (r *shardRunner) listen() error {
	k := r.part.K
	r.inboxes = make([]*sim.Mailbox, k)
	for s := range r.inboxes {
		r.inboxes[s] = sim.NewMailbox()
	}
	r.need = make([][]bool, k)
	for s := range r.need {
		r.need[s] = make([]bool, k)
	}
	needIn := make([]bool, k)
	for _, e := range r.g.Edges() {
		src, dst := r.part.Of[e.From], r.part.Of[e.To]
		if src != dst {
			r.need[src][dst] = true
			needIn[dst] = true
		}
	}
	if r.chaos != nil {
		r.recv = make([][]*chaosRecv, k)
		for dst := 0; dst < k; dst++ {
			r.recv[dst] = make([]*chaosRecv, k)
			for src := 0; src < k; src++ {
				if r.need[src][dst] {
					r.recv[dst][src] = &chaosRecv{}
				}
			}
		}
	}
	r.listeners = make([]net.Listener, k)
	for s := 0; s < k; s++ {
		if !needIn[s] {
			continue
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netrun: listen for shard %d: %w", s, err)
		}
		r.listeners[s] = l
	}
	return nil
}

// dial spawns the accept loops, then opens one connection per ordered shard
// pair with traffic. The dialer's handshake names its source shard.
func (r *shardRunner) dial() error {
	k := r.part.K
	for dst := 0; dst < k; dst++ {
		if r.listeners[dst] == nil {
			continue
		}
		if r.chaos != nil {
			r.w.Go(func() { r.chaosAcceptLoop(dst) })
			continue
		}
		expected := 0
		for src := 0; src < k; src++ {
			if r.need[src][dst] {
				expected++
			}
		}
		r.w.Go(func() { r.acceptLoop(dst, expected) })
	}
	if r.chaos != nil {
		return r.dialChaos()
	}
	r.conns = make([][]net.Conn, k)
	for src := 0; src < k; src++ {
		r.conns[src] = make([]net.Conn, k)
		for dst := 0; dst < k; dst++ {
			if !r.need[src][dst] {
				continue
			}
			conn, err := net.DialTimeout("tcp", r.listeners[dst].Addr().String(), 10*time.Second)
			if err != nil {
				return fmt.Errorf("netrun: dial shard pair %d->%d: %w", src, dst, err)
			}
			var hs [4]byte
			binary.BigEndian.PutUint32(hs[:], uint32(src))
			if _, err := conn.Write(hs[:]); err != nil {
				conn.Close()
				return fmt.Errorf("netrun: handshake %d->%d: %w", src, dst, err)
			}
			r.conns[src][dst] = conn
		}
	}
	return nil
}

// dialChaos builds one chaosSender per ordered shard pair with traffic: the
// logical channel is src<<32|dst, the identity handshake names the source
// shard, and the initial connect runs the resume protocol.
func (r *shardRunner) dialChaos() error {
	k := r.part.K
	r.senders = make([][]*chaosSender, k)
	for src := 0; src < k; src++ {
		r.senders[src] = make([]*chaosSender, k)
		for dst := 0; dst < k; dst++ {
			if !r.need[src][dst] {
				continue
			}
			s := &chaosSender{
				chaos:   r.chaos,
				channel: uint64(src)<<32 | uint64(dst),
				addr:    r.listeners[dst].Addr().String(),
				stopped: r.w.Stopped,
			}
			binary.BigEndian.PutUint32(s.hello[:], uint32(src))
			if err := s.connect(); err != nil {
				return fmt.Errorf("netrun: chaos dial shard pair %d->%d: %w", src, dst, err)
			}
			r.senders[src][dst] = s
		}
	}
	return nil
}

// chaosAcceptLoop accepts shard dst's connections until the listener closes
// at shutdown; reconnects arrive throughout the run, so there is no fixed
// accept count. Each connection is handled off-loop so one pair's
// serialization never blocks another pair's reconnect.
func (r *shardRunner) chaosAcceptLoop(dst int) {
	for {
		conn, err := r.listeners[dst].Accept()
		if err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: accept at shard %d: %w", dst, err))
			}
			return
		}
		r.w.Go(func() { r.chaosHandle(dst, conn) })
	}
}

// chaosHandle serves one accepted shard-pair connection: source-shard
// handshake in, resume count out (serialized per pair), then the counting
// muxed read loop until the connection dies.
func (r *shardRunner) chaosHandle(dst int, conn net.Conn) {
	defer conn.Close()
	var hs [4]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return
	}
	src := int(binary.BigEndian.Uint32(hs[:]))
	if src < 0 || src >= r.part.K || !r.need[src][dst] {
		r.w.Finish(0, fmt.Errorf("netrun: shard %d: bad handshake source %d", dst, src))
		return
	}
	rc := r.recv[dst][src]
	// Serialize per pair: wait for the previous connection's read loop to
	// drain to EOF so the count quoted below is final.
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if err := rc.ackResume(conn); err != nil {
		return
	}
	var hdr [shardHdrLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		eid := graph.EdgeID(binary.BigEndian.Uint32(hdr[:4]))
		bits := int(binary.BigEndian.Uint32(hdr[4:]))
		if int(eid) >= r.g.NumEdges() {
			r.w.Finish(0, fmt.Errorf("netrun: shard %d: frame names edge %d of %d", dst, eid, r.g.NumEdges()))
			return
		}
		e := r.g.Edge(eid)
		if r.part.Of[e.To] != dst || r.part.Of[e.From] == dst {
			r.w.Finish(0, fmt.Errorf("netrun: shard %d: misrouted frame for edge %d->%d", dst, e.From, e.To))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			// Torn mid-frame: not counted, so the sender replays it whole.
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: decode at shard %d: %w", dst, err))
			return
		}
		r.inboxes[dst].Push(sim.Flight{Edge: eid, Msg: msg})
		rc.received++
	}
}

func (r *shardRunner) acceptLoop(dst, expected int) {
	for i := 0; i < expected; i++ {
		conn, err := r.listeners[dst].Accept()
		if err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: accept at shard %d: %w", dst, err))
			}
			return
		}
		var hs [4]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: handshake read at shard %d: %w", dst, err))
			conn.Close()
			return
		}
		src := int(binary.BigEndian.Uint32(hs[:]))
		if src < 0 || src >= r.part.K || !r.need[src][dst] {
			r.w.Finish(0, fmt.Errorf("netrun: shard %d: bad handshake source %d", dst, src))
			conn.Close()
			return
		}
		r.w.Go(func() { r.readLoop(dst, conn) })
	}
}

// readLoop parses muxed frames off one shard-pair connection and feeds the
// destination shard's inbox. Every frame names its edge, so routing needs no
// per-connection state beyond the destination shard.
func (r *shardRunner) readLoop(dst int, conn net.Conn) {
	defer conn.Close()
	var hdr [shardHdrLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			// Connection closed: either shutdown or the peer is done
			// sending. Both are normal ends of stream.
			return
		}
		eid := graph.EdgeID(binary.BigEndian.Uint32(hdr[:4]))
		bits := int(binary.BigEndian.Uint32(hdr[4:]))
		if int(eid) >= r.g.NumEdges() {
			r.w.Finish(0, fmt.Errorf("netrun: shard %d: frame names edge %d of %d", dst, eid, r.g.NumEdges()))
			return
		}
		e := r.g.Edge(eid)
		if r.part.Of[e.To] != dst || r.part.Of[e.From] == dst {
			r.w.Finish(0, fmt.Errorf("netrun: shard %d: misrouted frame for edge %d->%d", dst, e.From, e.To))
			return
		}
		buf := make([]byte, (bits+7)/8)
		if _, err := io.ReadFull(conn, buf); err != nil {
			if !r.w.Stopped() {
				r.w.Finish(0, fmt.Errorf("netrun: short frame at shard %d: %w", dst, err))
			}
			return
		}
		msg, err := r.codec.Decode(buf, bits)
		if err != nil {
			r.w.Finish(0, fmt.Errorf("netrun: decode at shard %d: %w", dst, err))
			return
		}
		r.inboxes[dst].Push(sim.Flight{Edge: eid, Msg: msg})
	}
}

func (r *shardRunner) transport(s int) sim.Transport { return &shardWire{r: r, src: s} }

// shardWire is a shard worker's transport in sharded mode: sends whose head
// the shard owns go straight to its inbox, cut-edge sends become muxed
// frames on the shard pair's connection.
type shardWire struct {
	r     *shardRunner
	src   int
	frame []byte
}

// Frame implements sim.Wire. Every send is encoded — the codec's length is
// what the tier meters — but only a cut-edge send is framed for the wire.
func (t *shardWire) Frame(eid graph.EdgeID, msg protocol.Message) (int, error) {
	r := t.r
	data, bits, err := r.codec.Encode(msg)
	if err != nil {
		return 0, fmt.Errorf("netrun: encode on edge %d: %w", eid, err)
	}
	if r.part.Of[r.g.Edge(eid).To] != t.src {
		t.frame = make([]byte, shardHdrLen+len(data))
		binary.BigEndian.PutUint32(t.frame[:4], uint32(eid))
		binary.BigEndian.PutUint32(t.frame[4:8], uint32(bits))
		copy(t.frame[shardHdrLen:], data)
	}
	return bits, nil
}

// Carry routes one send: in-shard to the local inbox, cross-shard as the
// muxed frame Frame built.
func (t *shardWire) Carry(eid graph.EdgeID, msg protocol.Message) bool {
	r := t.r
	e := r.g.Edge(eid)
	if dst := r.part.Of[e.To]; dst != t.src {
		r.write(t.src, dst, e, t.frame)
	} else {
		r.inboxes[dst].Push(sim.Flight{Edge: eid, Msg: msg})
	}
	return true
}
