package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"learn2scale/internal/cmp"
	"learn2scale/internal/obs"
)

// memoRun is one replay of the request script: every response and the
// stable serve-trace bytes.
type memoRun struct {
	out   [][]*Response
	trace []byte
}

// replayScript serves steps through a fresh server at depth over
// models, with a stable serve-trace sink attached.
func replayScript(t *testing.T, models []*Model, depth int, steps []ScriptStep) memoRun {
	t.Helper()
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, TraceOptions{Stable: true, Tool: "test"})
	s, err := New(Config{Depth: depth, Trace: sink}, models)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.RunScript(context.Background(), steps)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return memoRun{out: out, trace: buf.Bytes()}
}

// servedDepth is the depth executeGroup clamps the configured one to.
func servedDepth(m *Model, depth int) int {
	return min(depth, len(m.TM.Plan.Layers), m.TM.Plan.Cores)
}

// responseKey renders every stable field of a response, logits as bits.
func responseKey(r *Response) string {
	bits := make([]uint32, len(r.Logits))
	for i, v := range r.Logits {
		bits[i] = math.Float32bits(v)
	}
	return fmt.Sprintf("%s/%s class=%d batch=%d cycles=%d logits=%08x",
		r.Model, r.Precision, r.Class, r.BatchSize, r.SimCycles, bits)
}

// TestSimMemoMatchesSimulation holds the report memo to the pass it
// replaces. The same trained pool replays serve_script.jsonl twice:
// wrapped without a registry (the memo serves repeated shapes) and with
// one (every group simulated). Responses and stable serve-trace bytes
// must be identical, and the memo must hold exactly one report per
// distinct (depth, group size) served. The memoized models are then
// served again at a deeper pipeline, whose SimCycles must come from a
// fresh System's RunPipeline at that depth, not from the memo's
// shallower reports of the same group sizes.
func TestSimMemoMatchesSimulation(t *testing.T) {
	f, err := os.Open("../../serve_script.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	steps, err := ReadScript(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Serve every step twice so each shape is hit after its miss.
	steps = append(steps, steps...)
	keys := make([]ModelKey, len(steps))
	for i, step := range steps {
		if keys[i], err = (&Request{Model: step.Model, Precision: step.Precision}).Key(); err != nil {
			t.Fatal(err)
		}
	}

	memoized := tracedModels(t, Config{})
	recorded := tracedModels(t, Config{Obs: obs.New()})
	for _, m := range recorded {
		if m.sims != nil {
			t.Fatalf("%s: a recording System must bypass the memo", m.Key)
		}
	}
	const depth = 2
	memo := replayScript(t, memoized, depth, steps)
	sim := replayScript(t, recorded, depth, steps)
	for i := range steps {
		for j := range memo.out[i] {
			got, want := responseKey(memo.out[i][j]), responseKey(sim.out[i][j])
			if got != want {
				t.Fatalf("step %d request %d:\nmemo      %s\nsimulated %s", i, j, got, want)
			}
		}
	}
	if !bytes.Equal(memo.trace, sim.trace) {
		t.Fatalf("stable serve traces differ:\n--- memo\n%s\n--- simulated\n%s", memo.trace, sim.trace)
	}

	byKey := make(map[ModelKey]*Model, len(memoized))
	for _, m := range memoized {
		byKey[m.Key] = m
	}
	served := make(map[ModelKey]map[simShape]bool)
	for i, key := range keys {
		if served[key] == nil {
			served[key] = make(map[simShape]bool)
		}
		served[key][simShape{servedDepth(byKey[key], depth), len(steps[i].Samples)}] = true
	}
	for _, m := range memoized {
		if len(m.sims) != len(served[m.Key]) {
			t.Fatalf("%s: memo holds %d reports, want %d (%v)", m.Key, len(m.sims), len(served[m.Key]), served[m.Key])
		}
		for shape := range served[m.Key] {
			if _, ok := m.sims[shape]; !ok {
				t.Fatalf("%s: no memoized report for %+v", m.Key, shape)
			}
		}
	}

	// The same Models behind a deeper server: same group sizes, a
	// different depth.
	const deeper = 4
	deep := replayScript(t, memoized, deeper, steps)
	differs := false
	for i, step := range steps {
		m := byKey[keys[i]]
		d := servedDepth(m, deeper)
		if d == servedDepth(m, depth) {
			t.Fatalf("%s: depths %d and %d clamp to the same pipeline", m.Key, depth, deeper)
		}
		cfg := cmp.DefaultConfig(m.TM.Plan.Cores)
		cfg.Core.Precision = m.Key.Precision
		want, err := cmp.MustNew(cfg).RunPipeline(m.TM.Plan, cmp.PipelineOptions{Depth: d, Batches: len(step.Samples)})
		if err != nil {
			t.Fatal(err)
		}
		for j, resp := range deep.out[i] {
			if resp.SimCycles != want.Completions[j] {
				t.Fatalf("step %d %s request %d at depth %d: SimCycles %d, fresh RunPipeline %d",
					i, m.Key, j, d, resp.SimCycles, want.Completions[j])
			}
			if resp.SimCycles != memo.out[i][j].SimCycles {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("every SimCycles agrees across depths; the check cannot tell the depths apart")
	}
}
