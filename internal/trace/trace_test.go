package trace

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"learn2scale/internal/netzoo"
	"learn2scale/internal/partition"
)

func TestFromPlanMatchesPlanTraffic(t *testing.T) {
	p := partition.NewPlan(netzoo.LeNet(), 16)
	tr := FromPlan(p)
	if tr.Network != "LeNet" || tr.Cores != 16 {
		t.Fatalf("header: %+v", tr)
	}
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d, want 4 synaptic layers", len(tr.Records))
	}
	if tr.TotalBytes() != p.TotalTraffic() {
		t.Errorf("trace bytes %d != plan %d", tr.TotalBytes(), p.TotalTraffic())
	}
	// First layer (broadcast input) has no messages.
	if len(tr.Records[0].Messages) != 0 {
		t.Error("layer 0 should carry no messages")
	}
}

func TestRoundTripJSON(t *testing.T) {
	p := partition.NewPlan(netzoo.MLP(), 8)
	tr := FromPlan(p)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"network": "MLP"`) {
		t.Error("JSON missing network field")
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalBytes() != tr.TotalBytes() {
		t.Errorf("round trip bytes %d != %d", back.TotalBytes(), tr.TotalBytes())
	}
	if len(back.Records) != len(tr.Records) {
		t.Errorf("round trip records %d != %d", len(back.Records), len(tr.Records))
	}
}

func TestReadRejectsCorruptTraces(t *testing.T) {
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Read(strings.NewReader(`{"network":"x","cores":0}`)); err == nil {
		t.Error("zero cores accepted")
	}
	bad := `{"network":"x","cores":4,"records":[
	  {"layer":"l","index":1,"bytes":10,"messages":[{"Src":0,"Dst":9,"Bytes":10}]}]}`
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range destination accepted")
	}
	mismatch := `{"network":"x","cores":4,"records":[
	  {"layer":"l","index":1,"bytes":99,"messages":[{"Src":0,"Dst":1,"Bytes":10}]}]}`
	if _, err := Read(strings.NewReader(mismatch)); err == nil {
		t.Error("byte-count mismatch accepted")
	}
}

func TestMaskedPlanTraceShrinks(t *testing.T) {
	dense := FromPlan(partition.NewPlan(netzoo.LeNet(), 16))
	masked := partition.NewPlan(netzoo.LeNet(), 16)
	masked.SetMask(1, partition.DiagonalMask(16))
	sparse := FromPlan(masked)
	if sparse.TotalBytes() >= dense.TotalBytes() {
		t.Error("masked trace should be smaller")
	}
}

// TestReadRejectsBadIndices is the regression test for index
// validation: duplicated, decreasing, or negative record indices
// would corrupt a replay's timeline and must not parse.
func TestReadRejectsBadIndices(t *testing.T) {
	rec := func(idx int) string {
		return `{"layer":"l` + strconv.Itoa(idx) + `","index":` + strconv.Itoa(idx) +
			`,"bytes":10,"messages":[{"Src":0,"Dst":1,"Bytes":10}]}`
	}
	cases := map[string]string{
		"duplicate":    `{"network":"x","cores":4,"records":[` + rec(0) + `,` + rec(0) + `]}`,
		"out-of-order": `{"network":"x","cores":4,"records":[` + rec(2) + `,` + rec(1) + `]}`,
		"negative":     `{"network":"x","cores":4,"records":[` + rec(-1) + `]}`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s index accepted", name)
		}
	}
	good := `{"network":"x","cores":4,"records":[` + rec(0) + `,` + rec(2) + `]}`
	if _, err := Read(strings.NewReader(good)); err != nil {
		t.Errorf("gapped ascending indices rejected: %v", err)
	}
}
