package timeline

import (
	"bytes"
	"encoding/json"
	"testing"
)

// pfTrace mirrors the trace-event container for test-side parsing.
type pfTrace struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
	TraceEvents     []TraceEvent   `json:"traceEvents"`
}

func TestWritePerfettoStructure(t *testing.T) {
	sink := synthetic()
	var buf1, buf2 bytes.Buffer
	meta := map[string]string{"scheme": "ssmask"}
	if err := sink.WritePerfetto(&buf1, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.WritePerfetto(&buf2, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("repeated WritePerfetto not byte-identical")
	}

	var tr pfTrace
	if err := json.Unmarshal(buf1.Bytes(), &tr); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if tr.OtherData["tool"] != "unit" || tr.OtherData["scheme"] != "ssmask" {
		t.Fatalf("otherData = %v", tr.OtherData)
	}

	type track struct{ pid, tid int }
	depth := map[track]int{}      // open B/E nesting per track
	slices := map[track][]int64{} // X slice start stamps per track
	var prevTS int64
	var sawMeta, sawData bool
	procs := map[int]bool{}
	for i, e := range tr.TraceEvents {
		tk := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if sawData {
				t.Fatalf("event %d: metadata after data events", i)
			}
			sawMeta = true
			if e.Name == "process_name" {
				procs[e.Pid] = true
			}
			continue
		case "B":
			depth[tk]++
		case "E":
			depth[tk]--
			if depth[tk] < 0 {
				t.Fatalf("event %d: E without B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
		case "X":
			if e.Dur < 0 {
				t.Fatalf("event %d: negative duration %d", i, e.Dur)
			}
			slices[tk] = append(slices[tk], e.TS)
		case "s", "t", "f":
			if e.ID == "" {
				t.Fatalf("event %d: flow without id", i)
			}
			// Flow must bind to an X slice starting at the same stamp on
			// the same track.
			found := false
			for _, ts := range slices[tk] {
				if ts == e.TS {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("event %d: flow %s at ts=%d pid=%d tid=%d resolves to no slice", i, e.ID, e.TS, e.Pid, e.Tid)
			}
		case "i":
		default:
			t.Fatalf("event %d: unknown phase %q", i, e.Ph)
		}
		sawData = true
		if e.TS < prevTS {
			t.Fatalf("event %d: ts %d after %d", i, e.TS, prevTS)
		}
		prevTS = e.TS
	}
	if !sawMeta || !procs[PidRouters] || !procs[PidLinks] || !procs[PidCores] {
		t.Fatalf("missing process metadata: %v", procs)
	}
	for tk, d := range depth {
		if d != 0 {
			t.Errorf("track pid=%d tid=%d left %d spans open", tk.pid, tk.tid, d)
		}
	}
	// synthetic's packet crosses 2 routers → one s + one f flow.
	var flows int
	for _, e := range tr.TraceEvents {
		if e.Ph == "s" || e.Ph == "t" || e.Ph == "f" {
			flows++
		}
	}
	if flows != 2 {
		t.Fatalf("%d flow events, want 2", flows)
	}
}

func TestLinkTid(t *testing.T) {
	seen := map[int]bool{}
	for node := 0; node < 4; node++ {
		for dir := 1; dir <= 4; dir++ {
			tid := LinkTid(node, dir)
			if seen[tid] {
				t.Fatalf("LinkTid(%d,%d)=%d collides", node, dir, tid)
			}
			seen[tid] = true
		}
	}
}
