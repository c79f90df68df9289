package timeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

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

	st, err := ReadPerfetto(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if st.OtherData["tool"] != "unit" || st.OtherData["scheme"] != "ssmask" {
		t.Fatalf("otherData = %v", st.OtherData)
	}
	// synthetic's packet crosses 2 routers → one s + one f flow.
	if st.Flows != 2 {
		t.Fatalf("%d flow events, want 2", st.Flows)
	}
}

// TestReadPerfettoRejects corrupts one line of a minimal valid trace
// per case; ReadPerfetto must reject each.
func TestReadPerfettoRejects(t *testing.T) {
	const valid = `{"otherData":{"tool":"unit"},"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0},
{"name":"process_name","ph":"M","pid":2,"tid":0},
{"name":"process_name","ph":"M","pid":3,"tid":0},
{"name":"pkt 0","ph":"X","ts":1,"dur":2,"pid":1,"tid":0},
{"name":"pkt 0","ph":"s","ts":1,"pid":1,"tid":0,"id":"0.0.0"},
{"name":"busy","ph":"B","ts":2,"pid":2,"tid":4},
{"name":"retx","ph":"i","ts":2,"pid":1,"tid":0},
{"name":"busy","ph":"E","ts":3,"pid":2,"tid":4}
]}`
	st, err := ReadPerfetto(strings.NewReader(valid))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if want := (PerfettoStats{OtherData: st.OtherData, Events: 8, Slices: 1, SpanPairs: 1, Flows: 1, Instants: 1}); !reflect.DeepEqual(st, want) {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	for _, c := range []struct{ name, old, new string }{
		{"metadata after data", `"ph":"E","ts":3,"pid":2,"tid":4}`,
			`"ph":"E","ts":3,"pid":2,"tid":4},{"name":"thread_name","ph":"M","pid":2,"tid":4}`},
		{"unsorted timestamps", `"ph":"E","ts":3`, `"ph":"E","ts":0`},
		{"E without B", `"ph":"B"`, `"ph":"i"`},
		{"spans left open", `"ph":"E"`, `"ph":"B"`},
		{"flow without id", `,"id":"0.0.0"`, ``},
		{"flow bound to no slice", `"ph":"s","ts":1`, `"ph":"s","ts":2`},
		{"negative duration", `"dur":2`, `"dur":-2`},
		{"unknown phase", `"ph":"i"`, `"ph":"?"`},
		{"missing process_name", `{"name":"process_name","ph":"M","pid":3`, `{"name":"thread_name","ph":"M","pid":3`},
		{"no events", valid[strings.Index(valid, "[")+1 : strings.LastIndex(valid, "]")], ``},
		{"not JSON", `]}`, `]`},
	} {
		doc := strings.Replace(valid, c.old, c.new, 1)
		if doc == valid {
			t.Fatalf("%s: corruption %q matched nothing", c.name, c.old)
		}
		if _, err := ReadPerfetto(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
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
