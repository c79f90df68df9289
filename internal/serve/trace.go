package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Request-scoped tracing for the serving plane.
//
// Every admitted request carries a deterministic ID (its admission
// ordinal) and, when tracing is enabled, a wall-clock lifecycle stamp
// chain:
//
//	admit → dequeued → batch-formed/sim-start → sim-end → dequant → respond
//
// The five phases derived from consecutive stamps telescope EXACTLY:
// because each phase is the int64-nanosecond difference of adjacent
// monotonic-clock stamps, their sum is identically the last stamp
// minus the first, so
//
//	queue + batch + sim + dequant + respond == total
//
// holds as an integer identity, not an approximation — the serving
// companion of the timeline package's latency telescoping.
//
// Field classes follow internal/obs: everything that is a pure
// function of the request script (IDs, batch composition, simulated
// cycles, predicted class) is Stable and byte-compares across host
// worker counts; every wall-clock nanosecond field is Volatile and is
// zeroed by a Stable-mode sink so scripted serve-trace records join
// the repo's byte-identity record family.

// Phase indexes one lifecycle phase of a served request.
type Phase int

// The request lifecycle phases, in telescoping order.
const (
	PhaseQueue   Phase = iota // admission → pulled off the queue by the dispatcher
	PhaseBatch                // dequeue → batch formed and grouped, sim pass starts
	PhaseSim                  // the group's pipelined simulation pass, or its memo lookup
	PhaseDequant              // sim end → logits ready: the group's one batched forward/dequant pass, shared by every member
	PhaseRespond              // logits → answer posted to the waiter
	NumPhases
)

// PhaseNames names the phases in Phase order.
var PhaseNames = [NumPhases]string{"queue", "batch", "sim", "dequant", "respond"}

func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return PhaseNames[p]
	}
	return fmt.Sprintf("phase%d", int(p))
}

// ReqTrace is one request's serve-trace record: the stable identity
// and correlation fields, plus the volatile wall-clock phase
// decomposition (omitted in Stable mode).
type ReqTrace struct {
	// Stable: pure functions of the request script.
	ID        int64  `json:"id"`         // admission ordinal, 1-based
	Model     string `json:"model"`      // scheme wire name
	Precision string `json:"precision"`  // datapath wire name
	Batch     int64  `json:"batch"`      // executed-group ordinal that served it, 1-based
	Slot      int    `json:"slot"`       // position within the group (pipeline batch slot)
	BatchSize int    `json:"batch_size"` // group size (requests sharing the sim pass)
	Class     int    `json:"class"`      // predicted class (bit-deterministic logits argmax)
	SimBase   int64  `json:"sim_base"`   // batch's global sim-cycle offset (timeline cursor)
	SimCycles int64  `json:"sim_cycles"` // completion cycle of the slot within the batch

	// Volatile: wall-clock nanoseconds, zero in Stable mode.
	AdmitNS   int64 `json:"t_admit_ns,omitempty"` // admission stamp, relative to server start
	QueueNS   int64 `json:"queue_ns,omitempty"`
	BatchNS   int64 `json:"batch_ns,omitempty"`
	SimNS     int64 `json:"sim_ns,omitempty"`
	DequantNS int64 `json:"dequant_ns,omitempty"`
	RespondNS int64 `json:"respond_ns,omitempty"`
	TotalNS   int64 `json:"total_ns,omitempty"`
}

// Phases returns the wall-clock phase durations in Phase order.
func (r *ReqTrace) Phases() [NumPhases]int64 {
	return [NumPhases]int64{r.QueueNS, r.BatchNS, r.SimNS, r.DequantNS, r.RespondNS}
}

// phaseSum is the left side of the telescoping identity.
func (r *ReqTrace) phaseSum() int64 {
	return r.QueueNS + r.BatchNS + r.SimNS + r.DequantNS + r.RespondNS
}

// stripVolatile zeroes the wall-clock fields (Stable-mode sinks).
func (r *ReqTrace) stripVolatile() {
	r.AdmitNS, r.QueueNS, r.BatchNS, r.SimNS, r.DequantNS, r.RespondNS, r.TotalNS = 0, 0, 0, 0, 0, 0, 0
}

// BatchTrace is one executed group's serve-trace record: the spine the
// request records hang off. One group = one cmp.RunPipeline report,
// simulated or read from the model's memo.
type BatchTrace struct {
	// Stable.
	ID        int64  `json:"id"` // executed-group ordinal, 1-based
	Model     string `json:"model"`
	Precision string `json:"precision"`
	Size      int    `json:"size"`  // requests in the group
	Depth     int    `json:"depth"` // pipeline depth the pass ran at
	SimBase   int64  `json:"sim_base"`
	SimTotal  int64  `json:"sim_total"` // the pass's TotalCycles
	// SecLo/SecHi bound the batch's half-open range of timeline section
	// indexes when a timeline sink is attached (both zero otherwise).
	SecLo int `json:"sec_lo,omitempty"`
	SecHi int `json:"sec_hi,omitempty"`

	// Volatile: zero in Stable mode.
	StartNS int64 `json:"t_start_ns,omitempty"` // sim-pass start, relative to server start
	SimNS   int64 `json:"sim_ns,omitempty"`     // wall-clock cost of the sim pass (a lookup on a memo hit)
}

func (b *BatchTrace) stripVolatile() { b.StartNS, b.SimNS = 0, 0 }

// TraceRecordName and TraceVersion identify the JSONL serve-trace
// artifact; they are part of the schema.
const (
	TraceRecordName = "l2s-serve-trace"
	TraceVersion    = 1
)

// TraceHeader is the first line of a serve-trace JSONL file.
type TraceHeader struct {
	Record  string `json:"record"`
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`
	// Wall reports whether the volatile wall-clock fields are present.
	// false = Stable mode: records are byte-identical across worker
	// counts for a fixed script.
	Wall bool `json:"wall"`
}

// batchLine / reqLine are the tagged JSONL wire forms.
type batchLine struct {
	K string `json:"k"` // "batch"
	BatchTrace
}

type reqLine struct {
	K string `json:"k"` // "req"
	ReqTrace
}

// TraceLog is a parsed (or retained) serve trace.
type TraceLog struct {
	Tool    string
	Wall    bool
	Batches []BatchTrace
	Reqs    []ReqTrace
}

// TraceOptions configures a TraceSink.
type TraceOptions struct {
	// Stable strips the volatile wall-clock fields so a scripted run's
	// records byte-compare across worker counts.
	Stable bool
	// Sample records every Nth answered request (by admission ID);
	// <= 1 records all. Requests traced explicitly (?trace=1) are
	// always recorded. Batch records are never sampled: they are the
	// spine request records reference.
	Sample int
	// Keep retains the records in memory for WriteServePerfetto /
	// AnalyzeTrace after the run.
	Keep bool
	// Tool tags the header.
	Tool string
}

// TraceSink receives the dispatcher's serve-trace records and streams
// them as validated JSONL. A nil *TraceSink is the disabled tracer:
// the per-request hot path then costs one branch and no allocations
// (the contract BenchmarkServeTraceOverhead* gates).
type TraceSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	opt TraceOptions
	log TraceLog
	err error
}

// NewTraceSink builds a serve-trace sink writing JSONL to w (nil w:
// keep-only sink for in-memory rendering/analysis).
func NewTraceSink(w io.Writer, opt TraceOptions) *TraceSink {
	t := &TraceSink{opt: opt}
	t.log.Tool = opt.Tool
	t.log.Wall = !opt.Stable
	if w != nil {
		t.w = bufio.NewWriter(w)
		t.writeLine(TraceHeader{Record: TraceRecordName, Version: TraceVersion, Tool: opt.Tool, Wall: !opt.Stable})
	}
	return t
}

// Close flushes the JSONL stream and returns the first write error.
func (t *TraceSink) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		if err := t.w.Flush(); t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Log returns the retained records (Keep mode); the slices are shared.
func (t *TraceSink) Log() *TraceLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	log := t.log
	return &log
}

// sampled reports whether admission ordinal id falls in the sample.
func (t *TraceSink) sampled(id int64) bool {
	return t.opt.Sample <= 1 || id%int64(t.opt.Sample) == 0
}

func (t *TraceSink) writeLine(v any) {
	if t.w == nil {
		return
	}
	b, err := json.Marshal(v)
	if err == nil {
		_, err = t.w.Write(append(b, '\n'))
	}
	if t.err == nil {
		t.err = err
	}
}

// observeBatch records one executed group. Called by the dispatcher
// goroutine only; the lock covers ad-hoc Log() readers.
func (t *TraceSink) observeBatch(b BatchTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opt.Stable {
		b.stripVolatile()
	}
	t.writeLine(batchLine{K: "batch", BatchTrace: b})
	if t.opt.Keep {
		t.log.Batches = append(t.log.Batches, b)
	}
}

// observeReq records one answered request.
func (t *TraceSink) observeReq(r ReqTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opt.Stable {
		r.stripVolatile()
	}
	t.writeLine(reqLine{K: "req", ReqTrace: r})
	if t.opt.Keep {
		t.log.Reqs = append(t.log.Reqs, r)
	}
}

// ReadTraceLog parses and validates a serve-trace JSONL stream. The
// validation enforces the artifact's structural contract:
//
//   - a versioned header line, then tagged batch/req lines;
//   - batch IDs strictly increasing, non-decreasing sim_base cursors;
//   - every request attached to the immediately preceding batch record
//     with consistent size, slot, class-of-service and sim-cycle
//     bounds (0 < sim_cycles <= sim_total), slots and IDs strictly
//     increasing within a batch;
//   - the telescoping identity queue+batch+sim+dequant+respond ==
//     total on every record carrying wall-clock fields — and, in Wall
//     mode, every record MUST carry them (total_ns > 0);
//   - in Stable mode (wall=false), NO volatile field may leak: every
//     wall-clock nanosecond must be zero.
func ReadTraceLog(r io.Reader) (*TraceLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) > 0 {
				return raw, true
			}
		}
		return nil, false
	}

	raw, ok := next()
	if !ok {
		return nil, fmt.Errorf("serve: empty trace log")
	}
	var hdr TraceHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return nil, fmt.Errorf("serve: trace line %d: %v", line, err)
	}
	if hdr.Record != TraceRecordName {
		return nil, fmt.Errorf("serve: trace line %d: record %q, want %q", line, hdr.Record, TraceRecordName)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("serve: trace line %d: version %d, want %d", line, hdr.Version, TraceVersion)
	}

	log := &TraceLog{Tool: hdr.Tool, Wall: hdr.Wall}
	var cur *BatchTrace // most recent batch; requests attach to it
	var curReqs int     // requests seen for cur
	var lastSlot, lastID int64
	for {
		raw, ok := next()
		if !ok {
			break
		}
		var tag struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %v", line, err)
		}
		switch tag.K {
		case "batch":
			var bl batchLine
			if err := json.Unmarshal(raw, &bl); err != nil {
				return nil, fmt.Errorf("serve: trace line %d: %v", line, err)
			}
			b := bl.BatchTrace
			if cur != nil && b.ID <= cur.ID {
				return nil, fmt.Errorf("serve: trace line %d: batch id %d not after %d", line, b.ID, cur.ID)
			}
			if cur == nil && b.ID < 1 {
				return nil, fmt.Errorf("serve: trace line %d: batch id %d < 1", line, b.ID)
			}
			if b.Size < 1 {
				return nil, fmt.Errorf("serve: trace line %d: batch %d size %d < 1", line, b.ID, b.Size)
			}
			if b.Depth < 1 {
				return nil, fmt.Errorf("serve: trace line %d: batch %d depth %d < 1", line, b.ID, b.Depth)
			}
			if b.SimTotal <= 0 {
				return nil, fmt.Errorf("serve: trace line %d: batch %d sim_total %d <= 0", line, b.ID, b.SimTotal)
			}
			if cur != nil && b.SimBase < cur.SimBase {
				return nil, fmt.Errorf("serve: trace line %d: batch %d sim_base %d ran backwards from %d", line, b.ID, b.SimBase, cur.SimBase)
			}
			if b.SecLo < 0 || b.SecHi < b.SecLo {
				return nil, fmt.Errorf("serve: trace line %d: batch %d section range [%d,%d) invalid", line, b.ID, b.SecLo, b.SecHi)
			}
			if !hdr.Wall && (b.StartNS != 0 || b.SimNS != 0) {
				return nil, fmt.Errorf("serve: trace line %d: batch %d: volatile wall-clock field leaked into a stable trace", line, b.ID)
			}
			log.Batches = append(log.Batches, b)
			cur = &log.Batches[len(log.Batches)-1]
			curReqs, lastSlot, lastID = 0, -1, 0
		case "req":
			var rl reqLine
			if err := json.Unmarshal(raw, &rl); err != nil {
				return nil, fmt.Errorf("serve: trace line %d: %v", line, err)
			}
			rt := rl.ReqTrace
			if cur == nil {
				return nil, fmt.Errorf("serve: trace line %d: req %d before any batch record", line, rt.ID)
			}
			if rt.Batch != cur.ID {
				return nil, fmt.Errorf("serve: trace line %d: req %d names batch %d under batch %d", line, rt.ID, rt.Batch, cur.ID)
			}
			if rt.ID <= lastID {
				return nil, fmt.Errorf("serve: trace line %d: req id %d not after %d within batch %d", line, rt.ID, lastID, cur.ID)
			}
			if int64(rt.Slot) <= lastSlot {
				return nil, fmt.Errorf("serve: trace line %d: req %d slot %d not after %d", line, rt.ID, rt.Slot, lastSlot)
			}
			if rt.Slot < 0 || rt.Slot >= cur.Size {
				return nil, fmt.Errorf("serve: trace line %d: req %d slot %d outside batch of %d", line, rt.ID, rt.Slot, cur.Size)
			}
			if rt.BatchSize != cur.Size {
				return nil, fmt.Errorf("serve: trace line %d: req %d batch_size %d != batch %d size %d", line, rt.ID, rt.BatchSize, cur.ID, cur.Size)
			}
			if rt.Model != cur.Model || rt.Precision != cur.Precision {
				return nil, fmt.Errorf("serve: trace line %d: req %d model %s/%s under batch %s/%s", line, rt.ID, rt.Model, rt.Precision, cur.Model, cur.Precision)
			}
			if rt.SimBase != cur.SimBase {
				return nil, fmt.Errorf("serve: trace line %d: req %d sim_base %d != batch's %d", line, rt.ID, rt.SimBase, cur.SimBase)
			}
			if rt.SimCycles <= 0 || rt.SimCycles > cur.SimTotal {
				return nil, fmt.Errorf("serve: trace line %d: req %d sim_cycles %d outside (0, %d]", line, rt.ID, rt.SimCycles, cur.SimTotal)
			}
			if curReqs++; curReqs > cur.Size {
				return nil, fmt.Errorf("serve: trace line %d: batch %d carries more than %d request records", line, cur.ID, cur.Size)
			}
			for ph, d := range rt.Phases() {
				if d < 0 {
					return nil, fmt.Errorf("serve: trace line %d: req %d negative %s phase %dns", line, rt.ID, Phase(ph), d)
				}
			}
			switch {
			case hdr.Wall && rt.TotalNS <= 0:
				return nil, fmt.Errorf("serve: trace line %d: req %d: wall-mode trace without wall-clock phases", line, rt.ID)
			case !hdr.Wall && (rt.TotalNS != 0 || rt.AdmitNS != 0 || rt.phaseSum() != 0):
				return nil, fmt.Errorf("serve: trace line %d: req %d: volatile wall-clock field leaked into a stable trace", line, rt.ID)
			case rt.phaseSum() != rt.TotalNS:
				return nil, fmt.Errorf("serve: trace line %d: req %d: phases sum to %dns, total is %dns (telescoping identity broken)",
					line, rt.ID, rt.phaseSum(), rt.TotalNS)
			}
			lastSlot, lastID = int64(rt.Slot), rt.ID
			log.Reqs = append(log.Reqs, rt)
		default:
			return nil, fmt.Errorf("serve: trace line %d: unknown record kind %q", line, tag.K)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}
