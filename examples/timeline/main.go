// Cycle-accurate timeline demo: train the paper's MLP with the
// traditional dense mapping and with communication-aware sparsity
// (SS_Mask) on a 16-core mesh, trace both inference runs with a
// timeline sink, and write each as a Perfetto trace plus a compact
// record. The printed comparison is the paper's locality claim at
// cycle granularity: SS_Mask does not just send fewer packets, the
// packets it still sends cross fewer links.
//
// Load timeline_baseline.json or timeline_ssmask.json at
// https://ui.perfetto.dev to scrub through every router, link and
// core; analyze the .tl records any time later with
//
//	go run ./cmd/l2s-trace -compare timeline_baseline.tl timeline_ssmask.tl
//
// Run with: go run ./examples/timeline
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"learn2scale"
)

func main() {
	log.SetFlags(0)

	const cores = 16
	ds := learn2scale.MNISTLike(150, 250, 3)

	opt := learn2scale.DefaultTrainOptions(cores)
	opt.Lambda = 0.006
	opt.SGD.Epochs = 8
	opt.SGD.LearningRate = 0.03

	var (
		analyses []*learn2scale.TimelineAnalysis
		labels   []string
	)
	for _, s := range []struct {
		name   string
		scheme learn2scale.Scheme
	}{
		{"baseline", learn2scale.Baseline},
		{"ssmask", learn2scale.SSMask},
	} {
		fmt.Printf("training %s...\n", s.name)
		m, err := learn2scale.Train(s.scheme, learn2scale.MLP(), ds, opt)
		if err != nil {
			log.Fatal(err)
		}

		// One sink per run; the simulation fills it with every packet's
		// hop-by-hop lifecycle, link busy intervals and compute spans.
		sink := learn2scale.NewTimeline()
		rep, err := m.SimulateTimeline(sink)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d total cycles, %d packets, %d timeline events\n",
			rep.TotalCycles(), rep.NoC.Packets, sink.Events())

		meta := map[string]string{"net": "mlp", "scheme": s.name}
		record := "timeline_" + s.name + ".tl"
		trace := "timeline_" + s.name + ".json"
		if err := writeWith(record, func(f *os.File) error {
			return sink.WriteRecord(f, "examples/timeline", meta)
		}); err != nil {
			log.Fatal(err)
		}
		if err := writeWith(trace, func(f *os.File) error {
			return sink.WritePerfetto(f, "examples/timeline", meta)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s and %s\n", record, trace)

		// Round-trip through the record (exactly what l2s-trace reads)
		// and digest it into chains, breakdowns and link heat.
		var buf bytes.Buffer
		if err := sink.WriteRecord(&buf, "examples/timeline", meta); err != nil {
			log.Fatal(err)
		}
		tl, err := learn2scale.ReadTimeline(&buf)
		if err != nil {
			log.Fatal(err)
		}
		a, err := learn2scale.AnalyzeTimeline(tl)
		if err != nil {
			log.Fatal(err)
		}
		analyses = append(analyses, a)
		labels = append(labels, s.name)
	}

	fmt.Println()
	fmt.Print(learn2scale.CompareTimelines(analyses, labels))

	for _, sec := range analyses[1].Sections {
		if crit := sec.Critical; crit != nil {
			fmt.Printf("\nSS_Mask layer %s critical transfer: packet %d, core %d → core %d, %d hops, %d cycles\n",
				sec.Label, crit.Packet, crit.Src, crit.Dst, crit.LinkHops(), crit.Latency())
			break
		}
	}
	fmt.Println("\nload the .json files at https://ui.perfetto.dev and follow the flow arrows hop by hop.")
}

func writeWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
