// Command l2s-train trains one benchmark network under a chosen
// parallelization scheme, reports accuracy and communication metrics,
// and can display the learned group-occupancy matrix (Fig. 6(b)).
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
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
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
	workers := flag.Int("workers", 0, "host worker threads (sets "+parallel.EnvWorkers+"; 0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print the observability summary")
	cli := obs.RegisterFlags()
	flag.Parse()

	if *workers > 0 {
		os.Setenv(parallel.EnvWorkers, strconv.Itoa(*workers))
	}
	reg := cli.Registry(*verbose)
	parallel.SetObs(reg)
	sess, err := live.Attach(cli, reg)
	if err != nil {
		log.Fatal(err)
	}
	if err := cli.Start(reg, live.MetricsEndpoint(reg, sess.Plane())); err != nil {
		log.Fatal(err)
	}

	var scheme core.Scheme
	switch *schemeName {
	case "baseline":
		scheme = core.Baseline
	case "ss":
		scheme = core.SS
	case "ssmask":
		scheme = core.SSMask
	default:
		log.Fatalf("unknown scheme %q", *schemeName)
	}

	cfg, ok := core.NetByName(core.Table4Nets(core.Quick), *netName)
	if !ok {
		log.Fatalf("unknown network %q", *netName)
	}
	spec := cfg.Spec
	var ds *data.Dataset
	switch cfg.Name {
	case "MLP", "LeNet":
		ds = data.MNISTLike(*train, *test, *seed)
	case "ConvNet":
		ds = data.CIFARLike(*train, *test, *seed)
	default:
		ds = cfg.Data(*seed)
	}

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
	tl := cli.TimelineSink()
	rep, err := m.SimulateTimeline(tl)
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
	if err := cli.Finish(reg, "l2s-train", meta, summaryW); err != nil {
		log.Fatal(err)
	}
	if err := cli.FinishTimeline(tl, "l2s-train", meta); err != nil {
		log.Fatal(err)
	}
	if err := sess.Finish(); err != nil {
		log.Fatal(err) // health violations exit non-zero
	}
}
