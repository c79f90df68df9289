// Package trace records the synchronization traffic of a partitioned
// inference as a portable JSON artifact — one record per layer
// transition with its message list — so external NoC simulators (or a
// later session of this one) can replay exactly the traffic a plan
// induces.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"learn2scale/internal/noc"
	"learn2scale/internal/partition"
)

// Record is the traffic burst entering one synaptic layer.
type Record struct {
	Layer    string        `json:"layer"`
	Index    int           `json:"index"`
	Messages []noc.Message `json:"messages"`
	Bytes    int64         `json:"bytes"`
}

// Trace is a whole single-pass inference's communication.
type Trace struct {
	Network string   `json:"network"`
	Cores   int      `json:"cores"`
	Records []Record `json:"records"`
}

// FromPlan extracts the trace of a partition plan (with whatever block
// masks it carries installed).
func FromPlan(p *partition.Plan) Trace {
	tr := Trace{Network: p.Spec.Name, Cores: p.Cores}
	for k := range p.Layers {
		tm := p.LayerTraffic(k)
		tr.Records = append(tr.Records, Record{
			Layer:    p.Layers[k].Shape.Spec.Name,
			Index:    k,
			Messages: tm.Messages(),
			Bytes:    tm.Total(),
		})
	}
	return tr
}

// TotalBytes sums the trace's traffic.
func (t Trace) TotalBytes() int64 {
	var s int64
	for _, r := range t.Records {
		s += r.Bytes
	}
	return s
}

// Write serializes the trace as indented JSON.
func (t Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Read parses a trace written by Write and validates it.
func Read(r io.Reader) (Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("trace: decode: %w", err)
	}
	if t.Cores <= 0 {
		return Trace{}, fmt.Errorf("trace: invalid core count %d", t.Cores)
	}
	for i, rec := range t.Records {
		// Indices order a replay's transitions, so they must be
		// non-negative and strictly increasing: a duplicated or
		// out-of-order index would silently merge two transitions into
		// one injection step.
		if rec.Index < 0 {
			return Trace{}, fmt.Errorf("trace: %s: negative index %d", rec.Layer, rec.Index)
		}
		if i > 0 && rec.Index <= t.Records[i-1].Index {
			return Trace{}, fmt.Errorf("trace: %s: index %d not after %s's %d",
				rec.Layer, rec.Index, t.Records[i-1].Layer, t.Records[i-1].Index)
		}
		var sum int64
		for _, m := range rec.Messages {
			if m.Src < 0 || m.Src >= t.Cores || m.Dst < 0 || m.Dst >= t.Cores {
				return Trace{}, fmt.Errorf("trace: %s: message %+v outside %d cores", rec.Layer, m, t.Cores)
			}
			sum += int64(m.Bytes)
		}
		if sum != rec.Bytes {
			return Trace{}, fmt.Errorf("trace: %s: declared %d bytes, messages carry %d", rec.Layer, rec.Bytes, sum)
		}
	}
	return t, nil
}
