// Command l2s-noc characterizes the mesh NoC on its own: latency vs
// offered load under synthetic traffic patterns (the classic
// BookSim-style curves) and per-link utilization, or replays a traffic
// trace produced by l2s-sim -dump-trace.
//
// The observability flags -obs, -obs-timing, -pprof, -timeline, -live,
// -live-clock, -health and -workers are shared by every l2s command
// (internal/obs/live.Run); -timeline traces every burst, and -live
// closes one window per offered load of the sweep, or per replayed
// layer with -replay.
//
// Usage:
//
//	l2s-noc -cores 16 -pattern uniform            # latency-load curve
//	l2s-noc -cores 16 -pattern transpose -links   # plus link loads
//	l2s-noc -replay trace.json                    # replay a trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"text/tabwriter"

	"learn2scale/internal/noc"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
	"learn2scale/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-noc: ")

	cores := flag.Int("cores", 16, "node count")
	patternName := flag.String("pattern", "uniform", "traffic: uniform|transpose|neighbor|hotspot")
	cycles := flag.Int("cycles", 500, "injection window in cycles")
	seed := flag.Int64("seed", 1, "traffic seed")
	links := flag.Bool("links", false, "print per-link utilization of the heaviest run")
	replay := flag.String("replay", "", "replay a JSON trace (from l2s-sim -dump-trace) instead")
	verbose := flag.Bool("v", false, "print the observability summary")
	run := live.NewRun(flag.CommandLine)
	flag.Parse()
	if err := run.Start(*verbose); err != nil {
		log.Fatal(err)
	}
	reg, tl := run.Registry(), run.Timeline()
	finish := func(meta map[string]string) {
		var summaryW *os.File
		if *verbose {
			summaryW = os.Stdout
		}
		if err := run.Finish("l2s-noc", meta, summaryW); err != nil {
			log.Fatal(err) // health violations exit non-zero
		}
	}

	if *replay != "" {
		replayTrace(*replay, reg, tl)
		finish(map[string]string{"replay": "true"})
		return
	}

	var pattern noc.Pattern
	switch *patternName {
	case "uniform":
		pattern = noc.Uniform
	case "transpose":
		pattern = noc.Transpose
	case "neighbor":
		pattern = noc.Neighbor
	case "hotspot":
		pattern = noc.Hotspot
	default:
		log.Fatalf("unknown pattern %q", *patternName)
	}

	cfg := noc.DefaultConfig(topology.ForCores(*cores))
	cfg.Obs = reg
	cfg.Timeline = tl // serial sweep: one auto-registered section per burst
	sim, err := noc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rates := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	fmt.Printf("%s traffic on %dx%d mesh (%d VCs, %d planes, %d-flit packets)\n\n",
		pattern, cfg.Mesh.W, cfg.Mesh.H, cfg.VCs, cfg.Planes, cfg.PacketFlits)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "offered (flits/node/cyc)\taccepted\tavg latency\tmax latency\tdrain")
	curve, err := sim.LatencyLoadCurve(pattern, rates, *cycles, *seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range curve {
		fmt.Fprintf(w, "%.2f\t%.3f\t%.1f\t%d\t%d\n",
			p.OfferedRate, p.Accepted, p.AvgLatency, p.MaxLatency, p.Drained)
	}
	w.Flush()

	if *links {
		fmt.Printf("\nlink utilization at offered load %.2f:\n%s",
			rates[len(rates)-1], sim.LinkUtilization().String())
	}
	finish(map[string]string{"pattern": *patternName, "cores": strconv.Itoa(*cores)})
}

func replayTrace(path string, reg *obs.Registry, tl *timeline.Sink) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	cfg := noc.DefaultConfig(topology.ForCores(tr.Cores))
	cfg.Obs = reg
	cfg.Timeline = tl
	sim, err := noc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %s trace (%d cores, %d bytes)\n\n", tr.Network, tr.Cores, tr.TotalBytes())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tmessages\tbytes\tdrain (cyc)\tavg pkt latency")
	for _, rec := range tr.Records {
		if rec.Bytes == 0 {
			continue
		}
		// Label the burst's timeline section after the layer (nil-safe
		// when tracing is off).
		ses := sim.Begin()
		g, err := ses.Inject(rec.Messages, 0, 0, tl.Section(rec.Layer))
		if err == nil {
			_, _, err = ses.Next()
		}
		if err != nil {
			log.Fatal(err)
		}
		res := ses.Result(g)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\n",
			rec.Layer, len(rec.Messages), rec.Bytes, res.Cycles, res.AvgLatency())
		// Each replayed layer burst is one deterministic telemetry
		// window spanning its simulated drain.
		reg.Boundary(rec.Layer, float64(res.Cycles))
	}
	w.Flush()
}
