// Command l2s-sim simulates one single-pass inference of a benchmark
// network on the paper's CMP platform and prints the per-layer timing,
// traffic and energy breakdown. By default the plan is the traditional
// (dense) parallelization; -scheme first trains the network under a
// parallelization scheme (baseline, SS, or SS_Mask) and simulates the
// learned plan, so one run exercises the full train-then-simulate
// pipeline.
//
// With -obs the run writes a flight record: a deterministic JSON/CSV
// artifact holding per-layer cycle counts, the NoC packet-latency
// histogram, and (with -scheme) per-epoch training metrics. The
// default record is byte-identical at every -workers count;
// -obs-timing attaches the volatile wall-clock profile (per-worker
// utilization, span durations).
//
// With -timeline the run additionally writes a cycle-accurate event
// trace of every layer burst (packet lifecycles, link busy intervals,
// per-core compute spans): Perfetto/chrome://tracing trace-event JSON
// when the path ends in .json, otherwise the compact record consumed
// by l2s-trace. Timelines, like flight records, are byte-identical at
// every -workers count. These flags, with -pprof, -live, -live-clock,
// -health and -workers, are shared by every l2s command
// (internal/obs/live.Run).
//
// Usage:
//
//	l2s-sim -net alexnet -cores 16
//	l2s-sim -net vgg19 -cores 32 -stream-weights
//	l2s-sim -net mlp -cores 16 -scheme ssmask -obs record.json
//	l2s-sim -net alexnet -pprof localhost:6060 -v
//	l2s-sim -net lenet -scheme ssmask -fault-rate 0.05
//	l2s-sim -net alexnet -fault-config scenario.json
//	l2s-sim -net alexnet -pipeline-depth 4 -pipeline-batches 8
//
// With -pipeline-depth N the inference is pipelined: layers grouped
// into N stages pinned to disjoint core blocks, several inferences in
// flight on one simulated clock. The layer table then describes the
// first inference; the pipeline summary (per-stage occupancy,
// fill/steady/drain split, measured steady-state throughput) covers
// the whole run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"text/tabwriter"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fault"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/partition"
	"learn2scale/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-sim: ")

	netName := flag.String("net", "alexnet", "network: mlp|lenet|convnet|alexnet|caffenet|vgg19|resnet18")
	cores := flag.Int("cores", 16, "core count")
	stream := flag.Bool("stream-weights", false, "charge DRAM stalls for weights exceeding the on-core buffer")
	dumpTrace := flag.String("dump-trace", "", "write the synchronization traffic trace to this JSON file")
	schemeName := flag.String("scheme", "none", "train before simulating: none|baseline|ss|ssmask (trainable nets only)")
	epochs := flag.Int("epochs", 0, "training epochs when -scheme is set (0 = per-network default)")
	train := flag.Int("train", 200, "training examples when -scheme is set")
	test := flag.Int("test", 80, "test examples when -scheme is set")
	seed := flag.Int64("seed", 1, "training seed when -scheme is set")
	pipeDepth := flag.Int("pipeline-depth", 0, "pipeline the inference across this many layer stages on disjoint core blocks (0 = barrier schedule)")
	pipeBatches := flag.Int("pipeline-batches", 0, "in-flight inferences when -pipeline-depth is set (0 = 2x depth)")
	precName := flag.String("precision", "float32", "inference datapath: float32|int16 (int16 models packed dual-MAC lanes; with -scheme it also quantizes the trained net and reports the accuracy delta)")
	faultRate := flag.Float64("fault-rate", 0, "per-flit transient fault probability on every link (0 disables)")
	faultSeed := flag.Int64("fault-seed", 5, "seed for fault decisions when -fault-rate is set")
	faultConfig := flag.String("fault-config", "", "JSON fault scenario file (see internal/fault); overrides -fault-rate")
	verbose := flag.Bool("v", false, "print the observability summary (and training progress)")
	run := live.NewRun(flag.CommandLine)
	flag.Parse()

	precision, err := fixed.ParsePrecision(*precName)
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Start(*verbose); err != nil {
		log.Fatal(err)
	}
	reg := run.Registry()

	spec, ok := netzoo.ByName(*netName)
	if !ok {
		log.Fatalf("unknown network %q", *netName)
	}

	plan, model, ds := buildPlan(spec, *netName, *schemeName, *cores, *epochs, *train, *test, *seed, *verbose, reg)

	var fcfg *fault.Config
	if *faultConfig != "" {
		f, err := os.Open(*faultConfig)
		if err != nil {
			log.Fatal(err)
		}
		if fcfg, err = fault.ReadConfig(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	} else if *faultRate > 0 {
		fcfg = fault.Scenario(*faultRate, *faultSeed)
	}

	if model != nil && precision == fixed.Int16 {
		delta := model.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
		if *verbose {
			fmt.Fprintf(os.Stderr, "quantized to int16: accuracy %.2f%% (float %.2f%%, delta %.4f)\n",
				model.QuantAccuracy*100, model.Accuracy*100, delta)
		}
	}

	cfg := cmp.DefaultConfig(*cores)
	cfg.StreamWeights = *stream
	cfg.Obs = reg
	cfg.Fault = fcfg
	cfg.Timeline = run.Timeline()
	cfg.Core.Precision = precision
	sys, err := cmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var rep cmp.Report
	var prep *cmp.PipelineReport
	if *pipeDepth > 0 {
		batches := *pipeBatches
		if batches <= 0 {
			batches = 2 * *pipeDepth
		}
		pr, err := sys.RunPipeline(plan, cmp.PipelineOptions{Depth: *pipeDepth, Batches: batches})
		if err != nil {
			log.Fatal(err)
		}
		prep = &pr
		rep = pr.Inference
	} else {
		rep, err = sys.RunPlan(plan)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.FromPlan(plan).Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote traffic trace to %s\n\n", *dumpTrace)
	}

	if model != nil {
		fmt.Printf("%s on %d cores (%dx%d mesh), %s, %s (accuracy %.2f%%, traffic %.0f%% of dense)\n",
			model.Spec.Name, *cores, cfg.Mesh.W, cfg.Mesh.H, model.Scheme, precision, model.Accuracy*100, model.TrafficRate()*100)
		if precision == fixed.Int16 {
			fmt.Printf("quantized accuracy %.2f%% (delta %.4f)\n",
				model.QuantAccuracy*100, model.AccuracyDelta)
		}
		fmt.Println()
	} else {
		fmt.Printf("%s on %d cores (%dx%d mesh), traditional parallelization, %s\n\n",
			spec.Name, *cores, cfg.Mesh.W, cfg.Mesh.H, precision)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Layer\tCompute cycles\tComm cycles\tTraffic\tAvg pkt latency")
	for _, l := range rep.Layers {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\n",
			l.Name, l.ComputeCycles, l.CommCycles, l.TrafficBytes, l.NoC.AvgLatency())
	}
	fmt.Fprintf(w, "TOTAL\t%d\t%d\t%d\t\n", rep.ComputeCycles, rep.CommCycles, rep.TrafficBytes)
	w.Flush()
	fmt.Printf("\ncommunication share: %.1f%% of single-pass latency\n", rep.CommFraction()*100)
	fmt.Printf("NoC energy: %s\n", rep.NoCEnergy.String())
	fmt.Printf("compute energy: %.1f uJ\n", rep.ComputeEnergyPJ/1e6)
	if prep != nil {
		fmt.Printf("\npipelined: depth %d, %d in-flight inferences\n", prep.Depth, prep.Batches)
		sw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(sw, "Stage\tLayers\tCores\tOccupancy")
		for i, st := range prep.Stages {
			fmt.Fprintf(sw, "%d\t%d-%d\t%d..%d\t%.2f\n",
				i, st.First, st.Last, st.CoreBase, st.CoreBase+st.Cores-1, st.Occupancy)
		}
		sw.Flush()
		fmt.Printf("fill %d + steady %d + drain %d = %d cycles\n",
			prep.FillCycles, prep.SteadyCycles, prep.DrainCycles, prep.TotalCycles)
		fmt.Printf("steady-state throughput: %.3f inferences/Mcycle (sequential replay: %.3f)\n",
			prep.ThroughputPerMCycle, 1e6/float64(rep.TotalCycles()))
	}
	nocRes, failedN := rep.NoC, len(rep.Failed)
	if prep != nil {
		// the fault totals cover the whole pipelined run, not just the
		// first inference the layer table above describes
		nocRes, failedN = prep.NoC, len(prep.Failed)
	}
	if fcfg.Active() {
		fmt.Printf("\nfault injection: %d flits corrupted, %d packets retransmitted, %d packets lost, %d transfers undelivered\n",
			nocRes.DroppedFlits, nocRes.Retransmits, nocRes.LostPackets, failedN)
		if model != nil {
			acc, err := model.DegradedAccuracy(ds, rep.Failed, fcfg.DeadCores)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("degraded accuracy: %.2f%% (fault-free %.2f%%)\n", acc*100, model.Accuracy*100)
		} else if rep.Degraded() {
			fmt.Println("undelivered transfers zero-filled by their consumers (graceful degradation)")
		}
	}

	var summaryW *os.File
	if *verbose {
		summaryW = os.Stdout
	}
	meta := map[string]string{
		"net":       *netName,
		"cores":     strconv.Itoa(*cores),
		"scheme":    *schemeName,
		"precision": precision.String(),
	}
	if *pipeDepth > 0 {
		meta["pipeline-depth"] = strconv.Itoa(*pipeDepth)
	}
	if err := run.Finish("l2s-sim", meta, summaryW); err != nil {
		log.Fatal(err) // health violations exit non-zero
	}
}

// buildPlan returns the partition plan to simulate: the dense plan
// when schemeName is "none", otherwise the plan learned by training
// spec under the scheme (with its block masks installed), plus the
// dataset it trained on (for degraded-accuracy evaluation under
// fault injection).
func buildPlan(spec netzoo.NetSpec, netName, schemeName string, cores, epochs, train, test int, seed int64, verbose bool, reg *obs.Registry) (*partition.Plan, *core.TrainedModel, *data.Dataset) {
	if schemeName == "none" {
		return partition.NewPlan(spec, cores), nil, nil
	}
	// The struct scheme is served but not offered here.
	scheme, ok := core.ParseScheme(schemeName)
	if !ok || scheme == core.StructureLevel {
		log.Fatalf("unknown scheme %q", schemeName)
	}
	cfg, ok := core.NetByName(core.Table4Nets(core.Quick), netName)
	if !ok {
		log.Fatalf("-scheme needs a trainable network (mlp|lenet|convnet|caffenet), got %q", netName)
	}
	ds := cfg.SizedData(train, test, seed)
	opt := cfg.TrainOptions(scheme, cores)
	if epochs > 0 {
		opt.SGD.Epochs = epochs
	}
	opt.Seed, opt.Obs = seed, reg
	if verbose {
		opt.Log = os.Stderr
	}
	m, err := core.Train(scheme, cfg.Spec, ds, opt)
	if err != nil {
		log.Fatal(err)
	}
	return m.Plan, m, ds
}
