package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
	"learn2scale/internal/serve"
	"learn2scale/internal/timeline"
)

// writeArtifacts writes one of each artifact l2s-trace reads into dir,
// with the library writers, from one small traced serving run: the
// flight record (with profile), the live stream, the timeline as
// record and Perfetto JSON, the /metrics exposition, and the serve
// trace in stable mode; a second run over the same models writes the
// wall-mode serve trace.
func writeArtifacts(t *testing.T, dir string) {
	t.Helper()
	write := func(name string, fn func(*bytes.Buffer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.New()
	parallel.SetObs(reg)
	defer parallel.SetObs(nil)
	var stream bytes.Buffer
	plane := live.New(live.Config{Out: &stream})
	reg.SetTap(plane)
	tl := timeline.NewSink()

	sgd := nn.DefaultSGD()
	sgd.Epochs = 2
	spec := core.SparseNetConfig{
		Name: "MLP", Spec: netzoo.MLP(),
		Recipe: core.Recipe{Lambda: 0.03, ThresholdRel: 0.3, SGD: sgd, Seed: 3},
	}
	models, err := serve.NewModels(serve.Config{Obs: reg, Timeline: tl}, spec, data.MNISTLike(60, 20, 3),
		[]core.Scheme{core.SSMask}, []fixed.Precision{fixed.Float32}, 4, 0, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	script := []serve.ScriptStep{
		{Model: "ssmask", Samples: []int{0, 1, 2}},
		{Model: "ssmask", Samples: []int{3}},
	}
	serveTrace := func(cfg serve.Config, opt serve.TraceOptions) func(*bytes.Buffer) error {
		return func(buf *bytes.Buffer) error {
			cfg.Trace = serve.NewTraceSink(buf, opt)
			s, err := serve.New(cfg, models)
			if err != nil {
				return err
			}
			_, err = s.RunScript(context.Background(), script)
			s.Close()
			if cerr := cfg.Trace.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
	write("st.jsonl", serveTrace(serve.Config{Obs: reg, Timeline: tl}, serve.TraceOptions{Stable: true, Tool: "test"}))

	write("rec.json", func(b *bytes.Buffer) error { return reg.Record("test", nil, true).WriteJSON(b) })
	write("metrics.txt", func(b *bytes.Buffer) error { return live.WriteMetrics(b, reg, plane) })
	write("stream.jsonl", func(b *bytes.Buffer) error {
		err := plane.Close()
		b.Write(stream.Bytes())
		return err
	})
	write("run.tl", func(b *bytes.Buffer) error { return tl.WriteRecord(b, "test", nil) })
	write("run.json", func(b *bytes.Buffer) error { return tl.WritePerfetto(b, "test", nil) })
	write("empty.tl", func(b *bytes.Buffer) error {
		empty := timeline.NewSink()
		empty.Section("idle")
		return empty.WriteRecord(b, "test", nil)
	})
	write("empty.json", func(b *bytes.Buffer) error { return obs.New().Record("test", nil, false).WriteJSON(b) })
	reg.SetTap(nil)
	write("st.wall.jsonl", serveTrace(serve.Config{}, serve.TraceOptions{Tool: "test"}))
}

// swap replaces the first old with new.
func swap(old, new string) func(string) string {
	return func(s string) string { return strings.Replace(s, old, new, 1) }
}

// swapAll replaces every old with new.
func swapAll(old, new string) func(string) string {
	return func(s string) string { return strings.ReplaceAll(s, old, new) }
}

// bump adds delta to the integer that follows key after the first
// anchor.
func bump(anchor, key string, delta int64) func(string) string {
	return func(s string) string {
		i := strings.Index(s, anchor)
		if i < 0 {
			return s
		}
		j := i + strings.Index(s[i:], key) + len(key)
		k := j
		for k < len(s) && (s[k] == '-' || s[k] >= '0' && s[k] <= '9') {
			k++
		}
		n, err := strconv.ParseInt(s[j:k], 10, 64)
		if err != nil {
			return s
		}
		return s[:j] + strconv.FormatInt(n+delta, 10) + s[k:]
	}
}

// negateFirstCounter negates the value of the first sample that
// follows a counter's TYPE line.
func negateFirstCounter(s string) string {
	i := strings.Index(s, " counter\n")
	if i < 0 {
		return s
	}
	i += len(" counter\n")
	end := i + strings.IndexByte(s[i:], '\n')
	sp := i + strings.LastIndexByte(s[i:end], ' ') + 1
	return s[:sp] + "-" + s[sp:]
}

// TestRunReadsEveryArtifact drives each l2s-trace mode over an
// artifact written by the library writers. Each mode must accept its
// artifact and reject a one-line corruption of it or an unmet
// requirement.
func TestRunReadsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	writeArtifacts(t, dir)

	for _, c := range []struct {
		name   string
		file   string              // the artifact "@" stands for in args
		args   []string            // run's arguments
		mutate func(string) string // corrupts a copy of file; nil runs it as written
		want   string              // substring of the expected error; "" = must pass
		out    string              // with want == "": substring of the expected stdout
	}{
		{"record", "rec.json", []string{"-record", "@", "-require-noc", "-require-training", "-require-sim",
			"-require-workers", "-require-serve", "-min-latency-buckets", "2"}, nil, "", "rec.json: ok (tool=test"},
		{"record empty", "empty.json", []string{"-record", "@"}, nil, "flight record is empty", ""},
		{"record no noc", "rec.json", []string{"-record", "@", "-require-noc"}, swap(`"noc.packets"`, `"noc.packetz"`), "missing noc.packets", ""},
		{"record few buckets", "rec.json", []string{"-record", "@", "-min-latency-buckets", "99"}, nil, "want >= 99", ""},
		{"record no training", "rec.json", []string{"-record", "@", "-require-training"}, swapAll(".epoch.", ".epoh."), "no per-epoch training gauges", ""},
		{"record no sim", "rec.json", []string{"-record", "@", "-require-sim"}, swapAll("sim.layer.", "sim.layr."), "no per-layer simulation gauges", ""},
		{"record no workers", "rec.json", []string{"-record", "@", "-require-workers"}, swapAll("parallel.worker.", "parallel.wrker."), "no per-worker pool utilization", ""},
		{"record unbalanced serve", "rec.json", []string{"-record", "@", "-require-serve"}, bump(`"serve.requests"`, `"value": `, 1), "unbalanced serving accounting", ""},
		{"record volatile leak", "rec.json", []string{"-record", "@", "-require-serve"}, swap(`"serve.batch_size"`, `"serve.latency"`), "volatile serve.latency leaked", ""},

		{"live", "stream.jsonl", []string{"-live", "@", "-min-windows", "3", "-require-serve"}, nil, "", "stream invariants hold"},
		{"live skipped window", "stream.jsonl", []string{"-live", "@"}, swap(`{"w":1,`, `{"w":2,`), "want 1", ""},
		{"live few windows", "stream.jsonl", []string{"-live", "@", "-min-windows", "999"}, nil, "want >= 999", ""},
		{"live no batch window", "stream.jsonl", []string{"-live", "@", "-require-serve"}, swapAll(`"label":"serve.batch"`, `"label":"serve.bat"`), "no serve.batch-labeled windows", ""},

		{"prom", "metrics.txt", []string{"-prom", "@"}, nil, "", "exposition parses cleanly"},
		{"prom negative counter", "metrics.txt", []string{"-prom", "@"}, negateFirstCounter, "negative value", ""},

		{"timeline report", "run.tl", []string{"-top", "3", "@"}, nil, "", "packets delivered"},
		{"timeline compare", "run.tl", []string{"-compare", "@", "@"}, nil, "", "packets by hop distance"},
		{"timeline gate", "run.tl", []string{"-compare", "-gate-mean-hops", "@", "@"}, nil, "gate failed", ""},
		{"timeline dense index", "run.tl", []string{"@"}, swap(`{"index":0,`, `{"index":1,`), "index", ""},
		{"timeline empty", "empty.tl", []string{"@"}, nil, "timeline record is empty", ""},
		{"timeline to perfetto", "run.tl", []string{"-perfetto", filepath.Join(dir, "conv.json"), "@"}, nil, "", "wrote Perfetto trace"},

		{"perfetto", "run.json", []string{"@"}, nil, "", "run.json: ok ("},
		{"perfetto unbalanced E", "run.json", []string{"@"}, swap(`"ph":"B"`, `"ph":"i"`), "E without matching B", ""},
		{"perfetto unbound flow", "run.json", []string{"@"}, bump(`"ph":"s"`, `"tid":`, 1000), "binds to no slice", ""},

		{"serve stable", "st.jsonl", []string{"-serve", "@"}, nil, "", "stable-mode log"},
		{"serve stable volatile leak", "st.jsonl", []string{"-serve", "@"}, swap(`"sim_cycles":`, `"total_ns":1,"sim_cycles":`), "volatile wall-clock field leaked", ""},
		{"serve no batches", "st.jsonl", []string{"-serve", "@"}, func(s string) string { return s[:strings.IndexByte(s, '\n')+1] }, "records no batches", ""},
		{"serve wall", "st.wall.jsonl", []string{"-serve", "@"}, nil, "", "tail_blame"},
		{"serve wall phase sum", "st.wall.jsonl", []string{"-serve", "@"}, bump(`"k":"req"`, `"total_ns":`, 1), "telescoping identity broken", ""},

		{"misplaced flag", "stream.jsonl", []string{"-live", "@", "-top", "3"}, nil, "-top applies to timeline input", ""},
		{"two inputs", "stream.jsonl", []string{"-live", "@", "-prom", "@"}, nil, "both given", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.file)
			if c.mutate != nil {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				bad := c.mutate(string(raw))
				if bad == string(raw) {
					t.Fatal("corruption changed nothing")
				}
				path = filepath.Join(t.TempDir(), c.file)
				if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			args := make([]string, len(c.args))
			for i, a := range c.args {
				args[i] = strings.ReplaceAll(a, "@", path)
			}
			var out bytes.Buffer
			err := run(args, &out)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("run %q: %v", c.args, err)
			case c.want == "" && !strings.Contains(out.String(), c.out):
				t.Fatalf("run %q: output lacks %q:\n%s", c.args, c.out, out.String())
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("run %q: error %v, want one containing %q", c.args, err, c.want)
			}
		})
	}

}
