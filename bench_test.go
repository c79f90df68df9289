// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact
// (printing the same rows the paper reports on the first iteration)
// and reports the headline quantity as a custom metric.
//
// The benchmarks default to the Quick experiment profile so that
// `go test -bench=. -benchmem` completes in minutes; set
// L2S_BENCH_PROFILE=default for the full reduced-scale evaluation
// (see EXPERIMENTS.md).
package learn2scale_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"learn2scale"
	"learn2scale/internal/core"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

func benchProfile() learn2scale.Profile {
	if os.Getenv("L2S_BENCH_PROFILE") == "default" {
		return learn2scale.Default
	}
	return learn2scale.Quick
}

// printOnce guards the one-time table printing of each benchmark.
var printOnce sync.Map

func printTable(name, table string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", table)
	}
}

// BenchmarkTable1DataVolume regenerates Table I: per-layer NoC data
// volumes of the five benchmark networks under traditional
// parallelization on 16 cores.
func BenchmarkTable1DataVolume(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		entries := core.Table1(16)
		total = 0
		for _, e := range entries {
			total += e.Bytes
		}
		printTable("table1", core.Table1Table(entries).Format())
	}
	b.ReportMetric(float64(total), "bytes-total")
}

// BenchmarkMotivationCommShare regenerates the §III.B measurement:
// AlexNet's communication share on a 16-core CMP.
func BenchmarkMotivationCommShare(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := core.Motivation(netzoo.AlexNet(), 16)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.CommFraction
		printTable("motivation", res.Format())
	}
	b.ReportMetric(frac*100, "comm-%")
}

func microStructOptions() core.StructOptions {
	opt := core.QuickStructOptions()
	// Every channel count must be divisible by the group count (16
	// cores here, and conv2's input channels are conv1's outputs).
	opt.KernelsBase = [3]int{16, 16, 32}
	opt.KernelsWide = [3]int{16, 32, 48}
	opt.ImgSize = 12
	opt.Train, opt.Test = 80, 40
	opt.SGD.Epochs = 4
	if benchProfile() == learn2scale.Default {
		opt = core.DefaultStructOptions()
	}
	return opt
}

// BenchmarkTable3StructureLevel regenerates Table III: accuracy and
// speedup of the structure-level ConvNet variants.
func BenchmarkTable3StructureLevel(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table3Fig7(microStructOptions())
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[1].Speedup
		printTable("table3", core.Table3Table(rows).Format())
	}
	b.ReportMetric(speedup, "p2-speedup-x")
}

// BenchmarkFig7StructureLevel regenerates Fig. 7: the communication
// energy reduction of the structure-level variants.
func BenchmarkFig7StructureLevel(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table3Fig7(microStructOptions())
		if err != nil {
			b.Fatal(err)
		}
		red = rows[1].CommEnergyRed
		printTable("fig7", core.Table3Table(rows).Format())
	}
	b.ReportMetric(red*100, "p2-comm-energy-red-%")
}

func microSparseNet(idx int) core.SparseNetConfig {
	nets := core.Table4Nets(benchProfile())
	cfg := nets[idx]
	if benchProfile() == learn2scale.Quick {
		// Trim further: benches run every invocation of the suite.
		cfg.SGD.Epochs = 5
		orig := cfg.Data
		cfg.Data = func(seed int64) *learn2scale.Dataset {
			ds := orig(seed)
			if len(ds.TrainX) > 150 {
				ds.TrainX, ds.TrainY = ds.TrainX[:150], ds.TrainY[:150]
			}
			return ds
		}
	}
	return cfg
}

// BenchmarkTable4SparsifiedParallelization regenerates the MLP rows of
// Table IV: Baseline vs SS vs SS_Mask accuracy, traffic rate, speedup
// and energy reduction. (Run cmd/l2s-bench -exp table4 for all four
// networks.)
func BenchmarkTable4SparsifiedParallelization(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := core.EvalSparseNet(microSparseNet(0), 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[2].Speedup
		printTable("table4", core.SparseTable("TABLE IV (MLP rows)", rows).Format())
	}
	b.ReportMetric(speedup, "ssmask-speedup-x")
}

// BenchmarkTable5CoreScaling regenerates Table V: structure-level
// Parallel#3 speedup at several core counts.
func BenchmarkTable5CoreScaling(b *testing.B) {
	cores := []int{4, 8}
	if benchProfile() == learn2scale.Default {
		cores = []int{4, 8, 16, 32}
	}
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table5Fig8(microStructOptions(), cores)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Speedup
		printTable("table5", core.Table5Table(rows).Format())
	}
	b.ReportMetric(last, "speedup-x")
}

// BenchmarkFig8CoreScaling regenerates Fig. 8: communication energy
// across core counts for structure-level parallelization.
func BenchmarkFig8CoreScaling(b *testing.B) {
	cores := []int{4, 8}
	if benchProfile() == learn2scale.Default {
		cores = []int{4, 8, 16, 32}
	}
	var red float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table5Fig8(microStructOptions(), cores)
		if err != nil {
			b.Fatal(err)
		}
		red = rows[len(rows)-1].CommEnergyRed
		printTable("fig8", core.Table5Table(rows).Format())
	}
	b.ReportMetric(red*100, "comm-energy-red-%")
}

// BenchmarkTable6LeNetScaling regenerates Table VI: LeNet sparsified
// parallelization at 8 cores (quick) or 8 and 32 cores (default).
func BenchmarkTable6LeNetScaling(b *testing.B) {
	cores := []int{8}
	if benchProfile() == learn2scale.Default {
		cores = []int{8, 32}
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := core.Table6(microSparseNet(1), cores, nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[len(rows)-1].Speedup
		printTable("table6", core.SparseTable("TABLE VI (LeNet)", rows).Format())
	}
	b.ReportMetric(speedup, "ssmask-speedup-x")
}

// Host-parallelism regression guards. Each benchmark runs at one
// worker and at NumCPU workers; on a multi-core host the ratio is the
// parallel runtime's speedup (results are bit-identical either way, so
// the comparison is pure wall-clock). Record measurements in
// EXPERIMENTS.md when the host changes.

// benchWorkerCounts is the set of host worker counts the scaling
// benchmarks measure: serial, and everything the host offers.
func benchWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkConvForward measures a single conv2-shaped forward pass
// through the im2col+GEMM path that dominates training time.
func BenchmarkConvForward(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.Setenv(learn2scale.EnvWorkers, strconv.Itoa(w))
			layer := nn.NewConv2D("bench", 16, 28, 28, 64, 5, 1, 2, 1)
			rng := rand.New(rand.NewSource(1))
			layer.Init(rng)
			in := tensor.New(16, 28, 28)
			for i := range in.Data {
				in.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(in, false)
			}
		})
	}
}

// BenchmarkTrainEpoch measures one SGD epoch of the MLP on MNIST-like
// data — the end-to-end hot path that K-row batch parallelism
// targets. The issue's acceptance bar (≥2× at 4+ host cores) applies
// to the workers=NumCPU / workers=1 ratio on such hosts.
func BenchmarkTrainEpoch(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.Setenv(learn2scale.EnvWorkers, strconv.Itoa(w))
			ds := learn2scale.MNISTLike(200, 10, 9)
			opt := learn2scale.DefaultTrainOptions(4)
			opt.SGD.Epochs = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := learn2scale.Train(learn2scale.Baseline, learn2scale.MLP(), ds, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainEpochLive is BenchmarkTrainEpoch with the full live
// telemetry plane attached: an enabled obs registry tapped by a
// deterministic-mode live.Plane. Compared against BenchmarkTrainEpoch
// (no registry) and the obs-level BenchmarkTapOverhead* pair, it
// bounds the end-to-end cost of live telemetry on the training hot
// path — the acceptance bar is ≤2% ns/op over the untapped run.
func BenchmarkTrainEpochLive(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.Setenv(learn2scale.EnvWorkers, strconv.Itoa(w))
			reg := obs.New()
			plane := live.New(live.Config{Out: io.Discard})
			reg.SetTap(plane)
			parallel.SetObs(reg)
			defer parallel.SetObs(nil)
			ds := learn2scale.MNISTLike(200, 10, 9)
			opt := learn2scale.DefaultTrainOptions(4)
			opt.SGD.Epochs = 1
			opt.Obs = reg
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := learn2scale.Train(learn2scale.Baseline, learn2scale.MLP(), ds, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := plane.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTrainStepSteadyState measures one serial steady-state
// training step (forward, loss, backward, SGD update) on a small conv
// net after layer buffers are warm. The scratch-arena contract pinned
// by nn.TestTrainStepZeroAlloc shows up here as 0 allocs/op — CI's
// bench-smoke job fails if this benchmark ever reports otherwise.
func BenchmarkTrainStepSteadyState(b *testing.B) {
	b.Setenv(learn2scale.EnvWorkers, "1")
	rng := rand.New(rand.NewSource(7))
	net := nn.NewNetwork("bench").Add(
		nn.NewConv2D("c1", 1, 12, 12, 8, 3, 1, 1, 1),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 8, 12, 12, 2, 2),
		nn.NewFlatten("f"),
		nn.NewFullyConnected("fc", 8*6*6, 10),
	)
	net.Init(rng)
	tr := &nn.Trainer{Net: net, Config: nn.DefaultSGD()}
	inputs := make([]*tensor.Tensor, 8)
	labels := make([]int, len(inputs))
	for i := range inputs {
		in := tensor.New(1, 12, 12)
		in.RandN(rng, 1)
		inputs[i] = in
		labels[i] = i % 10
	}
	for i := 0; i < 3; i++ {
		tr.Step(inputs, labels) // size lazily-allocated buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(inputs, labels)
	}
}

// BenchmarkQuantizedInference measures one single-image forward pass
// through CaffeNet (AlexNet at full ImageNet scale) on the float32
// datapath and on the scaled-int16 fast path (per-channel weight
// scales, packed int16 GEMM, requantize between layers). `make
// bench-json` records the pair; on AVX2 hosts the int16 path runs the
// GEMM-bound layers ~1.6-1.7x faster end to end (the GEMM-level ≥2x
// bar benchjson asserts lives in BenchmarkGEMMInt16VsFloat32 in
// internal/tensor — the end-to-end gap is smaller because im2col,
// quantize and dequant ride along).
func BenchmarkQuantizedInference(b *testing.B) {
	build := func() (*nn.Network, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(11))
		net := netzoo.CaffeNet().Build(rng)
		in := tensor.New(3, 227, 227)
		in.RandN(rng, 1)
		return net, in
	}
	b.Run("float32", func(b *testing.B) {
		b.Setenv(learn2scale.EnvWorkers, "1")
		net, in := build()
		net.Forward(in, false) // warm layer scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(in, false)
		}
	})
	b.Run("int16", func(b *testing.B) {
		b.Setenv(learn2scale.EnvWorkers, "1")
		net, in := build()
		qn := nn.QuantizeNetwork(net, []*tensor.Tensor{in}, learn2scale.CalibConfig{Method: learn2scale.CalibMaxAbs})
		qn.Forward(in) // warm layer scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qn.Forward(in)
		}
	})
}

// BenchmarkSimulate measures the per-layer parallel CMP simulation.
func BenchmarkSimulate(b *testing.B) {
	ds := learn2scale.MNISTLike(60, 30, 9)
	opt := learn2scale.DefaultTrainOptions(16)
	opt.SGD.Epochs = 1
	m, err := learn2scale.Train(learn2scale.Baseline, learn2scale.MLP(), ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.Setenv(learn2scale.EnvWorkers, strconv.Itoa(w))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Simulate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6bOccupancy regenerates Fig. 6(b): the learned group
// occupancy matrix of an SS_Mask-trained model.
func BenchmarkFig6bOccupancy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		cfg := microSparseNet(0)
		ds := cfg.Data(cfg.Seed)
		m, err := core.Train(core.SSMask, cfg.Spec, ds, cfg.TrainOptions(core.SSMask, 16))
		if err != nil {
			b.Fatal(err)
		}
		out = core.Fig6b(m)
		printTable("fig6b", out)
	}
	b.ReportMetric(float64(len(out)), "chars")
}

// BenchmarkObsPrimitives measures the metrics layer itself: the
// enabled counter/span/histogram operations and the disabled (nil
// sink) path the hot loops pay when no -obs flag is given. The
// disabled variants should report ~1-2 ns/op and 0 allocs.
func BenchmarkObsPrimitives(b *testing.B) {
	b.Run("counter/enabled", func(b *testing.B) {
		c := obs.New().Counter("bench.counter", obs.Stable)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("counter/disabled", func(b *testing.B) {
		var r *obs.Registry
		c := r.Counter("bench.counter", obs.Stable)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("span/enabled", func(b *testing.B) {
		sp := obs.New().Span("bench/span")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm := sp.Start()
			tm.Stop()
		}
	})
	b.Run("span/disabled", func(b *testing.B) {
		var r *obs.Registry
		sp := r.Span("bench/span")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm := sp.Start()
			tm.Stop()
		}
	})
	b.Run("histogram/enabled", func(b *testing.B) {
		h := obs.New().Histogram("bench.hist", obs.Stable, []int64{16, 64, 256, 1024})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 1023))
		}
	})
	b.Run("histogram/disabled", func(b *testing.B) {
		var r *obs.Registry
		h := r.Histogram("bench.hist", obs.Stable, []int64{16, 64, 256, 1024})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 1023))
		}
	})
}

// BenchmarkConvForwardObs is the overhead guard on a real hot path:
// the conv forward pass with observability detached vs attached. The
// detached variant must match BenchmarkConvForward — layer spans are
// nil and every obs call is a pointer check.
func BenchmarkConvForwardObs(b *testing.B) {
	build := func() (*nn.Network, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(1))
		net := nn.NewNetwork("bench").Add(nn.NewConv2D("conv", 16, 28, 28, 64, 5, 1, 2, 1))
		net.Init(rng)
		in := tensor.New(16, 28, 28)
		for i := range in.Data {
			in.Data[i] = rng.Float32()
		}
		return net, in
	}
	b.Run("obs=off", func(b *testing.B) {
		net, in := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(in, false)
		}
	})
	b.Run("obs=on", func(b *testing.B) {
		net, in := build()
		net.SetObs(obs.New())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(in, false)
		}
	})
}
