// Command l2s-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints a table in the paper's
// layout; see EXPERIMENTS.md for the paper-vs-measured discussion.
//
// With -exp all and no -v, the selected experiments run concurrently
// on the host worker pool (internal/parallel) and their outputs print
// in declaration order; every number is bit-identical to a serial run.
//
// The observability flags -obs, -obs-timing, -pprof, -timeline, -live,
// -live-clock, -health and -workers are shared by every l2s command
// (internal/obs/live.Run). Concurrent experiments cannot share one
// timeline, so -timeline traces a dedicated run instead: the dense
// AlexNet single-pass inference at -cores.
//
// Usage:
//
//	l2s-bench -exp all                 # everything, quick profile
//	l2s-bench -exp table4 -profile default -v
//	l2s-bench -exp table1 -cores 16
//	l2s-bench -exp all -workers 8      # pin the host worker count
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
	"learn2scale/internal/partition"
	"learn2scale/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-bench: ")

	exp := flag.String("exp", "all", "experiment: table1|motivation|table3|table4|table5|table6|fig6b|mask-ablation|placement|overlap|multicast|quant|unstructured|noc-sweep|faults|pipeline|serve|all")
	profile := flag.String("profile", "quick", "training scale: quick|default")
	cores := flag.Int("cores", 16, "core count for single-configuration experiments")
	verbose := flag.Bool("v", false, "log training progress (disables concurrent experiments)")
	run := live.NewRun(flag.CommandLine)
	flag.Parse()
	if err := run.Start(false); err != nil {
		log.Fatal(err)
	}
	reg := run.Registry()

	var p core.Profile
	switch *profile {
	case "quick":
		p = core.Quick
	case "default":
		p = core.Default
	default:
		log.Fatalf("unknown profile %q", *profile)
	}
	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}

	type experiment struct {
		name string
		fn   func() (string, error)
	}
	var exps []experiment
	add := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		exps = append(exps, experiment{name, fn})
	}

	add("table1", func() (string, error) {
		return core.Table1Table(core.Table1(*cores)).Format() + "\n", nil
	})

	add("motivation", func() (string, error) {
		res, err := core.Motivation(netzoo.AlexNet(), *cores)
		if err != nil {
			return "", err
		}
		return res.Format() + "\n", nil
	})

	add("table3", func() (string, error) {
		opt := structOptions(p)
		opt.Log = logw
		rows, err := core.Table3Fig7(opt)
		if err != nil {
			return "", err
		}
		return core.Table3Table(rows).Format() + "\n" + core.Fig7Chart(rows) + "\n", nil
	})

	add("table4", func() (string, error) {
		rows, err := core.Table4(core.Table4Nets(p), *cores, logw)
		if err != nil {
			return "", err
		}
		return core.SparseTable(
			"TABLE IV: communication-aware sparsified parallelization (16 cores)", rows).Format() + "\n", nil
	})

	add("table5", func() (string, error) {
		opt := structOptions(p)
		opt.Log = logw
		rows, err := core.Table5Fig8(opt, []int{4, 8, 16, 32})
		if err != nil {
			return "", err
		}
		return core.Table5Table(rows).Format() + "\n" + core.Fig8Chart(rows) + "\n", nil
	})

	add("table6", func() (string, error) {
		lenet := core.Table4Nets(p)[1]
		rows, err := core.Table6(lenet, []int{8, 32}, logw)
		if err != nil {
			return "", err
		}
		return core.SparseTable(
			"TABLE VI: sparsified parallelization of LeNet at 8 and 32 cores", rows).Format() + "\n", nil
	})

	add("fig6b", func() (string, error) {
		lenet := core.Table4Nets(p)[1]
		ds := lenet.Data(lenet.Seed)
		opt := lenet.TrainOptions(core.SSMask, *cores)
		opt.Log = logw
		m, err := core.Train(core.SSMask, lenet.Spec, ds, opt)
		if err != nil {
			return "", err
		}
		return core.Fig6b(m) + "\n", nil
	})

	add("mask-ablation", func() (string, error) {
		rows, err := core.MaskAblation(*cores, 0.006, logw)
		if err != nil {
			return "", err
		}
		return core.MaskAblationTable(rows).Format() + "\n", nil
	})

	add("placement", func() (string, error) {
		rows, err := core.PlacementAblation(*cores, logw)
		if err != nil {
			return "", err
		}
		return core.PlacementTable(rows).Format() + "\n", nil
	})

	add("unstructured", func() (string, error) {
		rows, err := core.UnstructuredAblation(*cores, logw)
		if err != nil {
			return "", err
		}
		return core.UnstructuredTable(rows).Format() + "\n", nil
	})

	add("quant", func() (string, error) {
		rows, err := core.QuantAblation(core.Table4Nets(p), *cores, logw)
		if err != nil {
			return "", err
		}
		return core.QuantTable(rows).Format() + "\n", nil
	})

	add("multicast", func() (string, error) {
		return core.MulticastTable(core.MulticastAblation(*cores)).Format() + "\n", nil
	})

	add("overlap", func() (string, error) {
		rows, err := core.OverlapAblation(netzoo.AlexNet(), *cores)
		if err != nil {
			return "", err
		}
		return core.OverlapTable("AlexNet", rows).Format() + "\n", nil
	})

	add("faults", func() (string, error) {
		opt := core.QuickFaultOptions()
		if p == core.Default {
			opt = core.DefaultFaultOptions()
		}
		opt.Cores = *cores
		opt.Log = logw
		opt.Obs = reg
		rows, err := core.FaultSweep(opt)
		if err != nil {
			return "", err
		}
		return core.FaultSweepTable(rows).Format() + "\n", nil
	})

	add("pipeline", func() (string, error) {
		opt := core.QuickPipelineSweepOptions()
		if p == core.Default {
			opt = core.DefaultPipelineSweepOptions()
		}
		opt.Cores = *cores
		opt.Log = logw
		opt.Obs = reg
		rows, err := core.PipelineSweep(opt)
		if err != nil {
			return "", err
		}
		return core.PipelineSweepTable(rows).Format() + "\n", nil
	})

	add("serve", func() (string, error) {
		opt := serve.QuickSweepOptions()
		if p == core.Default {
			opt = serve.DefaultSweepOptions()
		}
		rows, err := serve.Sweep(opt, logw)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "Serving capacity: closed loop, %d requests x %d clients per cell\n",
			opt.Requests, opt.Clients)
		serve.WriteSweepTable(&sb, rows)
		sb.WriteString("\n")
		return sb.String(), nil
	})

	add("noc-sweep", func() (string, error) {
		rows, err := core.NoCSweep(*cores)
		if err != nil {
			return "", err
		}
		return core.NoCSweepTable(rows).Format() + "\n", nil
	})

	if len(exps) == 0 {
		log.Fatalf("unknown experiment %q", *exp)
	}

	// Experiments are independent; run them concurrently when nobody is
	// streaming training logs, printing outputs in declaration order.
	// Each experiment runs under a wall-time span (exp/<name>), so the
	// -obs-timing profile shows where a sweep spends its time.
	runExp := func(i int) (string, error) {
		tm := reg.Span("exp/" + exps[i].name).Start()
		defer tm.Stop()
		return exps[i].fn()
	}
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	if logw == nil {
		parallel.For(len(exps), func(i int) { outs[i], errs[i] = runExp(i) })
	} else {
		for i := range exps {
			outs[i], errs[i] = runExp(i)
		}
	}
	for i := range exps {
		if errs[i] != nil {
			log.Fatalf("%s: %v", exps[i].name, errs[i])
		}
		fmt.Print(outs[i])
	}
	// Experiments run concurrently, so they cannot share one timeline
	// deterministically; -timeline instead traces a dedicated reference
	// run — the dense AlexNet single-pass inference at -cores — which is
	// the burst the motivation experiment's numbers come from.
	if tl := run.Timeline(); tl != nil {
		cfg := cmp.DefaultConfig(*cores)
		cfg.Timeline = tl
		sys, err := cmp.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.RunPlan(partition.NewPlan(netzoo.AlexNet(), *cores)); err != nil {
			log.Fatal(err)
		}
		run.TimelineMeta = map[string]string{"net": "alexnet", "cores": strconv.Itoa(*cores)}
	}
	// Experiments may run concurrently, so -live streams from l2s-bench
	// are only deterministic for single-experiment runs.
	if err := run.Finish("l2s-bench", map[string]string{"exp": *exp, "profile": *profile}, nil); err != nil {
		log.Fatal(err) // health violations exit non-zero
	}
}

func structOptions(p core.Profile) core.StructOptions {
	if p == core.Quick {
		return core.QuickStructOptions()
	}
	return core.DefaultStructOptions()
}
