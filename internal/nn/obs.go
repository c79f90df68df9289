package nn

import (
	"fmt"

	"learn2scale/internal/obs"
)

// SetObs attaches one forward and one backward timing span per layer
// to the network (or detaches them with nil). Layer compute times are
// wall clock, so the spans are volatile: they land in a flight
// record's profile section, never the deterministic one.
func (n *Network) SetObs(r *obs.Registry) {
	if r == nil {
		n.fwdSpans, n.bwdSpans = nil, nil
		return
	}
	n.fwdSpans = make([]*obs.Span, len(n.Layers))
	n.bwdSpans = make([]*obs.Span, len(n.Layers))
	for i, l := range n.Layers {
		n.fwdSpans[i] = r.Span(fmt.Sprintf("nn/fwd/%02d_%s", i, l.Name()))
		n.bwdSpans[i] = r.Span(fmt.Sprintf("nn/bwd/%02d_%s", i, l.Name()))
	}
}
