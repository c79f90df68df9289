// Command l2s-train trains one benchmark network under a chosen
// parallelization scheme, reports accuracy and communication metrics,
// and can display the learned group-occupancy matrix (Fig. 6(b)).
//
// The observability flags -obs, -obs-timing, -pprof, -timeline, -live,
// -live-clock, -health and -workers are shared by every l2s command
// (internal/obs/live.Run); -timeline traces the trained model's
// single-pass inference.
//
// Usage:
//
//	l2s-train -net mlp -scheme ssmask -cores 16 -show-groups
//	l2s-train -net lenet -scheme ss -epochs 12 -lambda 0.02
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"learn2scale/internal/core"
	"learn2scale/internal/fixed"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs/live"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-train: ")

	netName := flag.String("net", "mlp", "network: mlp|lenet|convnet|caffenet")
	schemeName := flag.String("scheme", "ssmask", "scheme: baseline|ss|ssmask")
	cores := flag.Int("cores", 16, "core count")
	epochs := flag.Int("epochs", 0, "training epochs (0 = per-network default)")
	lambda := flag.Float64("lambda", 0, "group-Lasso strength (0 = per-network default)")
	train := flag.Int("train", 200, "training examples")
	test := flag.Int("test", 80, "test examples")
	seed := flag.Int64("seed", 1, "random seed")
	showGroups := flag.Bool("show-groups", false, "print the learned group occupancy matrix")
	quiet := flag.Bool("q", false, "suppress per-epoch logging")
	savePath := flag.String("save", "", "write the trained weights to this file")
	quant := flag.Bool("quant", false, "also evaluate 16-bit fixed-point inference accuracy")
	verbose := flag.Bool("v", false, "print the observability summary")
	run := live.NewRun(flag.CommandLine)
	flag.Parse()
	if err := run.Start(*verbose); err != nil {
		log.Fatal(err)
	}
	reg := run.Registry()

	// The struct scheme is served but not offered here.
	scheme, ok := core.ParseScheme(*schemeName)
	if !ok || scheme == core.StructureLevel {
		log.Fatalf("unknown scheme %q", *schemeName)
	}

	cfg, ok := core.NetByName(core.Table4Nets(core.Quick), *netName)
	if !ok {
		log.Fatalf("unknown network %q", *netName)
	}
	spec := cfg.Spec
	ds := cfg.SizedData(*train, *test, *seed)

	opt := cfg.TrainOptions(scheme, *cores)
	if *epochs > 0 {
		opt.SGD.Epochs = *epochs
	}
	if *lambda > 0 {
		opt.Lambda = *lambda
	}
	opt.Seed, opt.Obs = *seed, reg
	if !*quiet {
		opt.Log = os.Stderr
	}

	fmt.Printf("training %s with %s on %d cores (lambda=%g, epochs=%d)\n",
		spec.Name, scheme, *cores, opt.Lambda, opt.SGD.Epochs)
	m, err := core.Train(scheme, spec, ds, opt)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := m.SimulateTimeline(run.Timeline())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naccuracy:        %.2f%%\n", m.Accuracy*100)
	if *quant {
		m.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
		fmt.Printf("fixed-pt accu.:  %.2f%% (int16 inference path, %+.2f pp)\n",
			m.QuantAccuracy*100, (m.QuantAccuracy-m.Accuracy)*100)
	}
	fmt.Printf("traffic rate:    %.0f%% of dense\n", m.TrafficRate()*100)
	fmt.Printf("total cycles:    %d (compute %d + comm %d)\n",
		rep.TotalCycles(), rep.ComputeCycles, rep.CommCycles)
	fmt.Printf("NoC energy:      %s\n", rep.NoCEnergy.String())
	if *showGroups {
		fmt.Println("\n" + core.Fig6b(m))
	}
	if *savePath != "" {
		if err := m.Net.SaveFile(*savePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved weights to %s\n", *savePath)
	}

	var summaryW *os.File
	if *verbose {
		summaryW = os.Stdout
	}
	meta := map[string]string{
		"net":    *netName,
		"cores":  strconv.Itoa(*cores),
		"scheme": *schemeName,
	}
	if err := run.Finish("l2s-train", meta, summaryW); err != nil {
		log.Fatal(err) // health violations exit non-zero
	}
}
