package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Process ids of the Perfetto export's track groups: one thread per
// router, per directed link, and per core.
const (
	PidRouters = 1
	PidLinks   = 2
	PidCores   = 3
	// PidStages appears only for pipelined runs (any section tagged with
	// a nonzero stage or batch): one thread per pipeline stage, an "X"
	// slice per section executed on it. The gaps between slices on a
	// stage thread are the pipeline bubbles.
	PidStages = 4
	// PidServe is reserved for the serving layer's wall-clock "serve
	// plane" (internal/serve.WriteServePerfetto): queue depth, batch
	// windows and per-request lifecycle slices, passed to
	// WritePerfettoExtra alongside the simulated-cycle tracks.
	PidServe = 5
)

// LinkTid returns the Perfetto thread id of the link leaving node
// through direction dir (1..4).
func LinkTid(node, dir int) int { return node*4 + dir - 1 }

// TraceEvent is one Chrome trace-event. Timestamps are in
// microseconds; the export maps 1 simulated cycle to 1 µs so Perfetto's
// time ruler reads directly as cycles. Higher layers (the serving
// plane) pass their own events to WritePerfettoExtra to render their
// processes next to the simulated-cycle tracks.
type TraceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WritePerfetto renders the timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - process "routers": one thread per mesh router, an "X" slice per
//     hop a head flit spends buffered there (arrive → switch grant),
//     plus an ejection slice covering tail serialization, and instant
//     events for retransmissions and losses;
//   - process "links": one thread per directed mesh link, "B"/"E"
//     pairs bracketing each contiguous busy interval;
//   - process "cores": one thread per core, "B"/"E" pairs around each
//     layer's compute span;
//   - "s"/"t"/"f" flow arrows with one id per packet attempt stitch a
//     packet's hop slices into a visible chain across router tracks.
//
// The output is byte-deterministic: stamps are simulated cycles, the
// event order is a stable sort by timestamp over the deterministic
// record order, and JSON object keys are fixed.
func (t *Sink) WritePerfetto(w io.Writer, tool string, meta map[string]string) error {
	return t.WritePerfettoExtra(w, tool, meta, nil)
}

// WritePerfettoExtra is WritePerfetto with caller-supplied events
// merged in: extra metadata events (Ph "M") join the header block,
// extra data events join the stable timestamp sort. Safe on a nil sink
// when extra is the only content (the sim-track processes are still
// declared so the export still passes ReadPerfetto).
func (t *Sink) WritePerfettoExtra(w io.Writer, tool string, meta map[string]string, extra []TraceEvent) error {
	t.resolveStarts()
	secs := t.Sections()
	plat := t.Platform()

	pipelined := false
	for _, sec := range secs {
		if sec.Stage > 0 || sec.Batch > 0 {
			pipelined = true
			break
		}
	}

	var evs []TraceEvent
	namedRouter := map[int]bool{}
	namedLink := map[int]bool{}
	namedCore := map[int]bool{}
	namedStage := map[int]bool{}
	thread := func(pid, tid int, named map[int]bool, name string) {
		if named[tid] {
			return
		}
		named[tid] = true
		evs = append(evs, TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	router := func(node int) {
		x, y := -1, -1
		if plat.MeshW > 0 {
			x, y = node%plat.MeshW, node/plat.MeshW
		}
		thread(PidRouters, node, namedRouter, fmt.Sprintf("router %d (%d,%d)", node, x, y))
	}

	for _, sec := range secs {
		if pipelined {
			thread(PidStages, sec.Stage, namedStage, fmt.Sprintf("stage %d", sec.Stage))
			evs = append(evs, TraceEvent{Name: sec.Label, Cat: "stage", Ph: "X",
				TS: sec.Start, Dur: sec.span(), Pid: PidStages, Tid: sec.Stage,
				Args: map[string]any{"batch": sec.Batch, "comm": sec.Comm}})
		}
		chains, err := buildChains(sec)
		if err != nil {
			return err
		}
		for _, c := range chains {
			if c.Packet < 0 {
				continue // never-injected transfers carry no hop slices
			}
			id := fmt.Sprintf("%d.%d.%d", sec.Index, c.Packet, c.Attempt)
			name := fmt.Sprintf("pkt %d", c.Packet)
			if c.Attempt > 0 {
				name = fmt.Sprintf("pkt %d try %d", c.Packet, c.Attempt+1)
			}
			last := len(c.Hops) - 1
			for i, h := range c.Hops {
				if h.Depart == 0 && i == last && c.Outcome != Delivered {
					break // attempt ended before this hop departed
				}
				router(h.Node)
				ts := sec.Start + h.Arrive
				evs = append(evs, TraceEvent{Name: name, Cat: "hop", Ph: "X",
					TS: ts, Dur: h.Depart - h.Arrive, Pid: PidRouters, Tid: h.Node,
					Args: map[string]any{
						"section": sec.Label, "src": c.Src, "dst": c.Dst,
						"out": DirNames[h.Port], "plane": h.Plane,
					}})
				switch {
				case i == 0 && i != last:
					evs = append(evs, TraceEvent{Name: name, Cat: "hop", Ph: "s",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				case i != last:
					evs = append(evs, TraceEvent{Name: name, Cat: "hop", Ph: "t",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				case i == last && i != 0:
					evs = append(evs, TraceEvent{Name: name, Cat: "hop", Ph: "f", BP: "e",
						TS: ts, Pid: PidRouters, Tid: h.Node, ID: id})
				}
			}
			if c.Outcome == Delivered {
				h := c.Hops[last]
				evs = append(evs, TraceEvent{Name: "eject " + name, Cat: "eject", Ph: "X",
					TS: sec.Start + h.Depart, Dur: c.Eject - h.Depart,
					Pid: PidRouters, Tid: h.Node,
					Args: map[string]any{"section": sec.Label, "flits": c.Flits}})
			}
		}
		for i := range sec.Events {
			e := &sec.Events[i]
			switch e.Kind {
			case KindRetx:
				router(int(e.Node))
				evs = append(evs, TraceEvent{Name: fmt.Sprintf("retx pkt %d", e.Packet),
					Cat: "fault", Ph: "i", TS: sec.Start + e.Cycle,
					Pid: PidRouters, Tid: int(e.Node),
					Args: map[string]any{"section": sec.Label, "attempt": e.Attempt, "reinject": e.Queued}})
			case KindLost:
				router(int(e.Node))
				evs = append(evs, TraceEvent{Name: fmt.Sprintf("lost %d→%d", e.Src, e.Dst),
					Cat: "fault", Ph: "i", TS: sec.Start + e.Cycle,
					Pid: PidRouters, Tid: int(e.Node),
					Args: map[string]any{"section": sec.Label, "pkt": e.Packet}})
			case KindLink:
				node, dir := int(e.Node), int(e.Port)
				tid := LinkTid(node, dir)
				thread(PidLinks, tid, namedLink,
					fmt.Sprintf("%d→%d %s", node, plat.Neighbor(node, dir), DirNames[dir]))
				evs = append(evs,
					TraceEvent{Name: "busy", Cat: "link", Ph: "B", TS: sec.Start + e.Cycle,
						Pid: PidLinks, Tid: tid,
						Args: map[string]any{"section": sec.Label, "plane": e.Plane}},
					TraceEvent{Name: "busy", Cat: "link", Ph: "E", TS: sec.Start + e.End,
						Pid: PidLinks, Tid: tid})
			case KindCompute:
				core := int(e.Node)
				thread(PidCores, core, namedCore, fmt.Sprintf("core %d", core))
				evs = append(evs,
					TraceEvent{Name: sec.Label, Cat: "compute", Ph: "B", TS: sec.Start + e.Cycle,
						Pid: PidCores, Tid: core},
					TraceEvent{Name: sec.Label, Cat: "compute", Ph: "E", TS: sec.Start + e.End,
						Pid: PidCores, Tid: core})
			}
		}
	}

	var extraMeta []TraceEvent
	for _, e := range extra {
		if e.Ph == "M" {
			extraMeta = append(extraMeta, e)
		} else {
			evs = append(evs, e)
		}
	}

	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ph == "M" != (evs[j].Ph == "M") {
			return evs[i].Ph == "M" // metadata first
		}
		return evs[i].TS < evs[j].TS
	})

	head := []TraceEvent{
		{Name: "process_name", Ph: "M", Pid: PidRouters, Args: map[string]any{"name": "routers"}},
		{Name: "process_name", Ph: "M", Pid: PidLinks, Args: map[string]any{"name": "links"}},
		{Name: "process_name", Ph: "M", Pid: PidCores, Args: map[string]any{"name": "cores"}},
	}
	if pipelined {
		head = append(head, TraceEvent{Name: "process_name", Ph: "M", Pid: PidStages,
			Args: map[string]any{"name": "pipeline stages"}})
	}
	head = append(head, extraMeta...)
	evs = append(head, evs...)

	other := map[string]any{"tool": tool, "clock": "simulated cycles (1 cycle = 1 µs)"}
	for k, v := range meta {
		other[k] = v
	}

	bw := bufio.NewWriter(w)
	// Stream the array by hand so one huge run does not need a second
	// full in-memory copy as a marshalled byte slice.
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"otherData\":"); err != nil {
		return err
	}
	od, err := json.Marshal(other)
	if err != nil {
		return err
	}
	bw.Write(od)
	bw.WriteString(",\"traceEvents\":[\n")
	for i := range evs {
		if i > 0 {
			bw.WriteString(",\n")
		}
		b, err := json.Marshal(&evs[i])
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// PerfettoStats describes a trace-event document ReadPerfetto accepted.
type PerfettoStats struct {
	OtherData map[string]any // the document's otherData header
	Events    int            // trace events, metadata included
	Slices    int            // "X" complete slices
	SpanPairs int            // balanced "B"/"E" pairs
	Flows     int            // "s"/"t"/"f" flow events
	Instants  int            // "i" instant events
}

// ReadPerfetto parses trace-event JSON written by WritePerfetto or
// WritePerfettoExtra and validates the invariants Perfetto relies on:
// metadata first, then events sorted by timestamp; process_name
// metadata for the router, link and core processes; balanced B/E pairs
// per (pid, tid) track; non-negative X durations; and every s/t/f flow
// event carrying an id and binding to an X slice that starts at its
// timestamp on its track. It returns the first violation.
func ReadPerfetto(r io.Reader) (PerfettoStats, error) {
	// The fields the checks read; Args stay undecoded, so a large
	// trace costs one small struct per event.
	var doc struct {
		OtherData   map[string]any `json:"otherData"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	fail := func(format string, args ...any) (PerfettoStats, error) {
		return PerfettoStats{}, fmt.Errorf("timeline: "+format, args...)
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fail("not trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fail("no trace events")
	}

	st := PerfettoStats{OtherData: doc.OtherData, Events: len(doc.TraceEvents)}
	type track struct{ pid, tid int }
	depth := map[track]int{}
	slices := map[track]map[int64]bool{} // X slice start stamps per track
	procs := map[int]bool{}
	var prevTS int64
	var sawData bool
	for i, e := range doc.TraceEvents {
		tk := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if sawData {
				return fail("event %d: metadata after data events", i)
			}
			if e.Name == "process_name" {
				procs[e.Pid] = true
			}
			continue
		case "B":
			depth[tk]++
			st.SpanPairs++
		case "E":
			if depth[tk]--; depth[tk] < 0 {
				return fail("event %d: E without matching B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
		case "X":
			if e.Dur < 0 {
				return fail("event %d: negative slice duration %d", i, e.Dur)
			}
			if slices[tk] == nil {
				slices[tk] = map[int64]bool{}
			}
			slices[tk][e.TS] = true
			st.Slices++
		case "s", "t", "f":
			if e.ID == "" {
				return fail("event %d: flow event without id", i)
			}
			if !slices[tk][e.TS] {
				return fail("event %d: flow %s at ts=%d binds to no slice on pid=%d tid=%d",
					i, e.ID, e.TS, e.Pid, e.Tid)
			}
			st.Flows++
		case "C":
			// counter track (serve-plane queue depth): no structural
			// invariant beyond the global timestamp ordering.
		case "i":
			st.Instants++
		default:
			return fail("event %d: unknown phase %q", i, e.Ph)
		}
		sawData = true
		if e.TS < prevTS {
			return fail("event %d: ts %d after %d (not sorted)", i, e.TS, prevTS)
		}
		prevTS = e.TS
	}
	for _, pid := range []int{PidRouters, PidLinks, PidCores} {
		if !procs[pid] {
			return fail("no process_name metadata for pid %d", pid)
		}
	}
	for tk, d := range depth {
		if d != 0 {
			return fail("pid=%d tid=%d left %d spans open", tk.pid, tk.tid, d)
		}
	}
	return st, nil
}
