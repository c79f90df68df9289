package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"learn2scale/internal/topology"
)

func mesh4x4() topology.Mesh { return topology.NewMesh(4, 4) }

func TestLinkBetweenNormalizes(t *testing.T) {
	if l := LinkBetween(7, 3); l != (Link{A: 3, B: 7}) {
		t.Errorf("LinkBetween(7, 3) = %+v", l)
	}
	if l := LinkBetween(3, 7); l != (Link{A: 3, B: 7}) {
		t.Errorf("LinkBetween(3, 7) = %+v", l)
	}
}

func TestConfigActiveStructural(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Active() || nilCfg.Structural() {
		t.Error("nil config must be inactive")
	}
	if (&Config{Seed: 9}).Active() {
		t.Error("seed alone must not activate the config")
	}
	cases := []struct {
		cfg        Config
		active     bool
		structural bool
	}{
		{Config{DropProb: 0.1}, true, false},
		{Config{DeadLinks: []Link{{A: 0, B: 1}}}, true, true},
		{Config{DeadRouters: []int{3}}, true, true},
		{Config{DeadCores: []int{3}}, true, false},
		{Config{SlowLinks: []Link{{A: 0, B: 1}}}, false, false}, // no extra cycles
		{Config{SlowLinks: []Link{{A: 0, B: 1}}, SlowExtraCycles: 2}, true, false},
	}
	for i, c := range cases {
		if got := c.cfg.Active(); got != c.active {
			t.Errorf("case %d: Active() = %v, want %v", i, got, c.active)
		}
		if got := c.cfg.Structural(); got != c.structural {
			t.Errorf("case %d: Structural() = %v, want %v", i, got, c.structural)
		}
	}
}

func TestBudgetDefaults(t *testing.T) {
	if got := (&Config{}).Budget(); got != DefaultRetryBudget {
		t.Errorf("zero budget = %d, want default %d", got, DefaultRetryBudget)
	}
	if got := (&Config{RetryBudget: 5}).Budget(); got != 5 {
		t.Errorf("budget 5 = %d", got)
	}
	if got := (&Config{RetryBudget: -1}).Budget(); got != 0 {
		t.Errorf("negative budget = %d, want 0 (retransmission disabled)", got)
	}
	var nilCfg *Config
	if nilCfg.Budget() != 0 {
		t.Error("nil config must have zero budget")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	c := &Config{}
	if got := c.Backoff(1); got != DefaultRetryBackoff {
		t.Errorf("Backoff(1) = %d, want %d", got, DefaultRetryBackoff)
	}
	for k := 1; k < 10; k++ {
		if got, want := c.Backoff(k+1), 2*c.Backoff(k); got != want {
			t.Errorf("Backoff(%d) = %d, want doubled %d", k+1, got, want)
		}
	}
	if got := c.Backoff(100); got != 1<<20 {
		t.Errorf("Backoff(100) = %d, want cap %d", got, 1<<20)
	}
	if got := (&Config{RetryBackoff: 7}).Backoff(2); got != 14 {
		t.Errorf("custom base Backoff(2) = %d, want 14", got)
	}
	if got := c.Backoff(0); got != c.Backoff(1) {
		t.Error("attempt < 1 must clamp to the first backoff")
	}
}

func TestValidate(t *testing.T) {
	m := mesh4x4()
	good := &Config{
		DeadLinks:  []Link{{A: 0, B: 1}, {A: 5, B: 9}},
		FlakyLinks: []Link{{A: 2, B: 3}},
		SlowLinks:  []Link{{A: 0, B: 4}}, SlowExtraCycles: 3,
		DeadRouters: []int{15},
		DeadCores:   []int{0},
		DropProb:    0.25,
	}
	if err := good.Validate(m); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	var nilCfg *Config
	if err := nilCfg.Validate(m); err != nil {
		t.Errorf("nil config must validate: %v", err)
	}
	bad := []*Config{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{SlowExtraCycles: -1},
		{DeadLinks: []Link{{A: 1, B: 0}}},  // not normalized
		{DeadLinks: []Link{{A: 0, B: 2}}},  // not adjacent
		{DeadLinks: []Link{{A: 0, B: 99}}}, // out of range
		{FlakyLinks: []Link{{A: 3, B: 4}}}, // row wrap: not adjacent
		{DeadRouters: []int{16}},
		{DeadRouters: []int{-1}},
		{DeadCores: []int{16}},
	}
	for i, c := range bad {
		if err := c.Validate(m); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, *c)
		}
	}
}

func TestDropFlitDeterministicAndNested(t *testing.T) {
	lo := &Config{Seed: 11, DropProb: 0.05}
	hi := &Config{Seed: 11, DropProb: 0.3}
	drops := 0
	for pkt := int64(0); pkt < 200; pkt++ {
		for seq := 0; seq < 5; seq++ {
			a := lo.DropFlit(3, pkt, 1, 17, seq)
			if b := lo.DropFlit(3, pkt, 1, 17, seq); a != b {
				t.Fatal("DropFlit is not deterministic")
			}
			if a {
				drops++
				// Nested severity: dropped at 0.05 ⇒ dropped at 0.3.
				if !hi.DropFlit(3, pkt, 1, 17, seq) {
					t.Fatal("drop decision not nested across rates")
				}
			}
		}
	}
	// ~5% of 1000 decisions; generous bounds catch a broken hash.
	if drops < 20 || drops > 100 {
		t.Errorf("%d drops out of 1000 at p=0.05, outside [20, 100]", drops)
	}
	// A different salt must yield an independent decision stream.
	even := &Config{Seed: 11, DropProb: 0.5}
	differ := false
	for pkt := int64(0); pkt < 100 && !differ; pkt++ {
		differ = even.DropFlit(3, pkt, 1, 17, 0) != even.DropFlit(4, pkt, 1, 17, 0)
	}
	if !differ {
		t.Error("salt does not perturb drop decisions")
	}
	var nilCfg *Config
	if nilCfg.DropFlit(0, 0, 0, 0, 0) {
		t.Error("nil config must never drop")
	}
}

func TestScenario(t *testing.T) {
	c := Scenario(0.07, 42)
	if c.DropProb != 0.07 || c.Seed != 42 || c.Structural() {
		t.Errorf("Scenario = %+v", *c)
	}
	if Scenario(0, 1).Active() {
		t.Error("zero-rate scenario must be inactive")
	}
}

func TestStructuralScenarioNested(t *testing.T) {
	m := mesh4x4()
	lo := StructuralScenario(m, 0.2, 9)
	hi := StructuralScenario(m, 0.6, 9)
	if err := lo.Validate(m); err != nil {
		t.Fatal(err)
	}
	dead := map[Link]bool{}
	for _, l := range hi.DeadLinks {
		dead[l] = true
	}
	for _, l := range lo.DeadLinks {
		if !dead[l] {
			t.Errorf("link %v dead at rate 0.2 but alive at 0.6", l)
		}
	}
	if len(hi.DeadLinks) <= len(lo.DeadLinks) {
		t.Errorf("severity did not grow: %d dead at 0.2, %d at 0.6",
			len(lo.DeadLinks), len(hi.DeadLinks))
	}
}

func TestMeshLinks(t *testing.T) {
	m := mesh4x4()
	links := MeshLinks(m)
	// A W×H mesh has H·(W−1) horizontal + W·(H−1) vertical links.
	if want := 4*3 + 4*3; len(links) != want {
		t.Fatalf("4x4 mesh has %d links, want %d", len(links), want)
	}
	seen := map[Link]bool{}
	for _, l := range links {
		if l.A >= l.B || m.HopDist(l.A, l.B) != 1 {
			t.Errorf("bad link %+v", l)
		}
		if seen[l] {
			t.Errorf("duplicate link %+v", l)
		}
		seen[l] = true
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := &Config{
		Seed:            17,
		DeadLinks:       []Link{{A: 0, B: 1}, {A: 9, B: 13}},
		DeadRouters:     []int{6},
		DeadCores:       []int{2, 11},
		DropProb:        0.05,
		FlakyLinks:      []Link{{A: 4, B: 5}},
		SlowLinks:       []Link{{A: 1, B: 2}},
		SlowExtraCycles: 4,
		RetryBudget:     2,
		RetryBackoff:    16,
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := ReadConfig(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip changed config:\norig %+v\nback %+v", *orig, *back)
	}
	// Serialization is byte-deterministic.
	buf.Reset()
	if err := back.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != first {
		t.Errorf("re-serialization differs:\n%s\nvs\n%s", first, buf.String())
	}
}

func TestReadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := ReadConfig(strings.NewReader(`{"seed": 1, "dead_linkz": []}`)); err == nil {
		t.Error("typoed field must be rejected")
	}
	if _, err := ReadConfig(strings.NewReader("not json")); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestConfigGolden pins the on-disk scenario format: the checked-in
// file must parse, and writing it back must reproduce the bytes
// exactly. Regenerate with UPDATE_GOLDEN=1 go test ./internal/fault.
func TestConfigGolden(t *testing.T) {
	path := filepath.Join("testdata", "scenario.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		c := StructuralScenario(mesh4x4(), 0.4, 7)
		c.DeadCores = []int{10}
		c.SlowLinks = []Link{{A: 0, B: 1}}
		c.SlowExtraCycles = 2
		c.RetryBudget = 2
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReadConfig(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(mesh4x4()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("golden scenario drifted:\n--- want\n%s\n--- got\n%s", want, buf.Bytes())
	}
}
