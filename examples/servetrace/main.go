// Request-tracing demo: serve the paper's MLP through the batched
// dispatcher twice — batch-size-1 (window 0, depth 1: every request
// its own barrier-scheduled pass) and dynamically batched (2ms window,
// depth 4) — with wall-clock request tracing on, and render each run
// as a combined Perfetto trace: the serve plane (queue depth, batch
// windows, per-request lifecycle slices in microseconds) above the
// cycle-accurate stage tracks of the very batches that served the
// requests, joined by flow arrows.
//
// The printed attribution tables carry the why-batch story at request
// granularity: at batch-1 the burst queues behind itself, one sim and
// one forward pass per request; batched, it shares one sim pass and one
// batched forward pass, which leaves the group's forward (dequant) as
// the residual blame — the batching trade read straight off the
// telescoping queue→batch→sim→dequant→respond spans.
//
// Load servetrace_batch1.json or servetrace_batched.json (the
// committed pair lives next to this file) at https://ui.perfetto.dev
// and follow a request's flow arrow from its sim slice into its
// batch's window and on into the pipeline stage tracks.
//
// Run with: go run ./examples/servetrace
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"learn2scale"
)

func main() {
	log.SetFlags(0)

	const cores = 4
	spec := learn2scale.Table4Nets(learn2scale.Quick)[0] // MLP
	ds := learn2scale.MNISTLike(80, 40, 3)

	fmt.Println("training the served pool (ssmask on a 4-core mesh)...")
	pool, err := learn2scale.NewServeModels(learn2scale.ServeConfig{},
		spec, ds,
		[]learn2scale.Scheme{learn2scale.SSMask},
		[]learn2scale.Precision{learn2scale.Float32},
		cores, 3, 3)
	if err != nil {
		log.Fatal(err)
	}

	for _, run := range []struct {
		name string
		out  string
		cfg  learn2scale.ServeConfig
	}{
		{"batch-1", "servetrace_batch1.json",
			learn2scale.ServeConfig{Window: 0, Depth: 1}},
		{"batched", "servetrace_batched.json",
			learn2scale.ServeConfig{Window: 2 * time.Millisecond, MaxBatch: 8, Depth: 4}},
	} {
		if err := serveTraced(run.name, run.out, run.cfg, pool); err != nil {
			log.Fatal(err)
		}
	}
}

// serveTraced re-wraps the trained pool under cfg (fresh simulator
// fleets capture the run's own timeline sink), serves one burst of
// traced requests, prints the per-phase latency attribution, and
// writes the combined serve-plane + sim-cycle Perfetto trace.
func serveTraced(name, out string, cfg learn2scale.ServeConfig, pool []*learn2scale.ServeModel) error {
	tl := learn2scale.NewTimeline()
	cfg.Timeline = tl
	var buf bytes.Buffer
	sink := learn2scale.NewServeTraceSink(&buf,
		learn2scale.ServeTraceOptions{Keep: true, Tool: "example"})
	cfg.Trace = sink

	models := make([]*learn2scale.ServeModel, len(pool))
	for i, m := range pool {
		var err error
		models[i], err = learn2scale.NewServeModel(cfg, m.TM, m.Key.Precision, m.Samples)
		if err != nil {
			return err
		}
	}
	srv, err := learn2scale.NewServer(cfg, models)
	if err != nil {
		return err
	}

	// One burst of concurrent requests: under the 2ms window they
	// coalesce into shared pipeline passes, at window 0 each request is
	// its own pass.
	const requests = 8
	var wg sync.WaitGroup
	key := models[0].Key
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.SubmitTraced(context.Background(), key, models[0].Samples[i%len(models[0].Samples)])
			if err != nil {
				log.Fatal(err)
			}
			tr := resp.Trace
			fmt.Printf("  [%s] req %d: batch %d slot %d/%d  total %s (queue %s, sim %s)\n",
				name, tr.ID, tr.Batch, tr.Slot, tr.BatchSize,
				time.Duration(tr.TotalNS), time.Duration(tr.QueueNS), time.Duration(tr.SimNS))
		}(i)
	}
	wg.Wait()
	srv.Close()
	if err := sink.Close(); err != nil {
		return err
	}

	tlog, err := learn2scale.ReadServeTraceLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	an, err := learn2scale.AnalyzeServeTrace(tlog)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s: %d requests over %d batches\n", name, requests, len(tlog.Batches))
	an.WriteTable(os.Stdout)
	fmt.Println()

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	werr := learn2scale.WriteServePerfetto(f, sink.Log(), tl,
		"example", map[string]string{"run": name})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %s (load it at ui.perfetto.dev)\n\n", out)
	return nil
}
