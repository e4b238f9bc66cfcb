package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/protocol"
)

// InitialMessages returns sigma0 per root out-port. Roots with a single
// out-edge use Protocol.InitialMessage; wider roots (the Section 2
// extension) need the protocol to implement protocol.MultiInitializer so the
// unit commodity is split across the ports. Kernel.Inject sends them.
func InitialMessages(g *graph.G, p protocol.Protocol) ([]protocol.Message, error) {
	d := g.OutDegree(g.Root())
	if d == 1 {
		return []protocol.Message{p.InitialMessage()}, nil
	}
	mi, ok := p.(protocol.MultiInitializer)
	if !ok {
		return nil, fmt.Errorf("sim: root has out-degree %d but protocol %q does not implement MultiInitializer", d, p.Name())
	}
	msgs := mi.InitialMessages(d)
	if len(msgs) != d {
		return nil, fmt.Errorf("sim: protocol %q returned %d initial messages for root out-degree %d", p.Name(), len(msgs), d)
	}
	return msgs, nil
}
