package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"learn2scale/internal/core"
	"learn2scale/internal/fixed"
)

// LoadConfig drives the load generator against a Server.
type LoadConfig struct {
	// Requests is the total request budget. <= 0 means 64.
	Requests int
	// Clients is the closed-loop concurrency: each client issues its
	// share of requests back-to-back, a new one as soon as the last
	// answered. <= 0 means 4. Ignored in open-loop mode.
	Clients int
	// OpenLoop switches to open-loop arrivals: requests fire on an
	// exponential (Poisson) arrival process at TargetQPS regardless of
	// completions, the way real traffic does.
	OpenLoop bool
	// TargetQPS is the open-loop arrival rate. <= 0 means 50.
	TargetQPS float64
	// Mix is the set of model keys requests rotate through; nil means
	// every servable key.
	Mix []ModelKey
	// Seed drives arrival jitter and sample choice.
	Seed int64
	// Trace submits every request traced (SubmitTraced) and aggregates
	// the echoed server-side phase breakdown into the report: the
	// client-observed split of each answer into queue wait vs batch
	// formation vs simulation vs dequant/respond overhead.
	Trace bool
}

// LoadReport is the load generator's outcome: latency quantiles over
// answered requests and sustained throughput.
type LoadReport struct {
	Requests  int // issued
	Responses int // answered with logits
	Rejected  int // 429/503 at admission
	Failed    int // other errors (deadline, sim failure)

	Elapsed time.Duration
	QPS     float64 // Responses / Elapsed

	P50, P90, P99, Max time.Duration

	// Phase breakdown, populated when LoadConfig.Trace is on: per-phase
	// latency quantiles over the answered requests' echoed traces, and
	// the phase that dominates the tail (mean share among requests at
	// or above the p99 total). Because the server's decomposition
	// telescopes, the client's answer time splits completely into
	// these phases.
	Traced             int
	PhaseP50, PhaseP99 [NumPhases]time.Duration
	TailBlame          Phase
}

func (r LoadReport) String() string {
	s := fmt.Sprintf("%d/%d ok (%d rejected, %d failed)  qps=%.1f  p50=%s p90=%s p99=%s max=%s",
		r.Responses, r.Requests, r.Rejected, r.Failed, r.QPS, r.P50, r.P90, r.P99, r.Max)
	if r.Traced > 0 {
		s += fmt.Sprintf("  [p99 queue=%s sim=%s blame=%s]",
			r.PhaseP99[PhaseQueue], r.PhaseP99[PhaseSim], r.TailBlame)
	}
	return s
}

// RunLoad drives cfg's request stream at the server and reports
// latency quantiles and sustained QPS. Everything here is wall-clock
// and therefore volatile: the numbers feed benchmarks and capacity
// tables, never byte-compared records.
func RunLoad(ctx context.Context, s *Server, cfg LoadConfig) LoadReport {
	if cfg.Requests <= 0 {
		cfg.Requests = 64
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.TargetQPS <= 0 {
		cfg.TargetQPS = 50
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = s.Keys()
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		traces    []ReqTrace
		rejected  int
		failed    int
	)
	issue := func(i int, rng *rand.Rand) {
		key := mix[i%len(mix)]
		m := s.Model(key)
		in := m.Samples[rng.Intn(len(m.Samples))]
		submit := s.Submit
		if cfg.Trace {
			submit = s.SubmitTraced
		}
		t0 := time.Now()
		resp, err := submit(ctx, key, in)
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			latencies = append(latencies, d)
			if resp.Trace != nil {
				traces = append(traces, *resp.Trace)
			}
		case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining):
			rejected++
		default:
			failed++
		}
	}

	start := time.Now()
	if cfg.OpenLoop {
		// Open loop: exponential inter-arrival gaps at TargetQPS; each
		// request runs in its own goroutine so slow responses never
		// throttle the arrival process.
		arrival := rand.New(rand.NewSource(cfg.Seed))
		var wg sync.WaitGroup
		for i := 0; i < cfg.Requests; i++ {
			gap := time.Duration(arrival.ExpFloat64() / cfg.TargetQPS * float64(time.Second))
			time.Sleep(gap)
			wg.Add(1)
			go func(i int, seed int64) {
				defer wg.Done()
				issue(i, rand.New(rand.NewSource(seed)))
			}(i, cfg.Seed+int64(i)+1)
		}
		wg.Wait()
	} else {
		// Closed loop: Clients workers, next request on completion.
		var wg sync.WaitGroup
		next := make(chan int, cfg.Requests)
		for i := 0; i < cfg.Requests; i++ {
			next <- i
		}
		close(next)
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
				for i := range next {
					issue(i, rng)
				}
			}(c)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	rep := LoadReport{
		Requests:  cfg.Requests,
		Responses: len(latencies),
		Rejected:  rejected,
		Failed:    failed,
		Elapsed:   elapsed,
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Responses) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = quantile(latencies, 0.50)
	rep.P90 = quantile(latencies, 0.90)
	rep.P99 = quantile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	rep.foldTraces(traces)
	return rep
}

// foldTraces aggregates echoed server-side traces into the report's
// per-phase quantiles and tail blame.
func (r *LoadReport) foldTraces(traces []ReqTrace) {
	r.Traced = len(traces)
	if len(traces) == 0 {
		return
	}
	col := make([]time.Duration, len(traces))
	totals := make([]int64, len(traces))
	for i := range traces {
		totals[i] = traces[i].TotalNS
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	for ph := 0; ph < int(NumPhases); ph++ {
		for i := range traces {
			col[i] = time.Duration(traces[i].Phases()[ph])
		}
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		r.PhaseP50[ph] = quantile(col, 0.50)
		r.PhaseP99[ph] = quantile(col, 0.99)
	}
	_, r.TailBlame = tailShares(traces, quantile(totals, 0.99))
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile[T ~int64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// SweepOptions configures the serving capacity sweep (`l2s-bench -exp
// serve`): one model pool, then a grid of serving configurations ×
// load shapes.
type SweepOptions struct {
	// Fixture: which spec/profile to train. Quick defaults keep the
	// sweep minutes-scale.
	Cores    int
	Epochs   int
	Requests int
	Clients  int
	Seed     int64
	// Windows are the batching windows to sweep; 0 is the
	// batch-size-1 serving baseline.
	Windows []time.Duration
	// Depths are the pipeline depths to sweep.
	Depths []int
	// Int16 adds the quantized datapath next to float32.
	Int16 bool
}

// QuickSweepOptions is the CI-scale sweep: batch-1 vs windowed
// batching at two depths, float32 and int16.
func QuickSweepOptions() SweepOptions {
	return SweepOptions{
		Cores:    4,
		Epochs:   2,
		Requests: 48,
		Clients:  8,
		Seed:     1,
		Windows:  []time.Duration{0, 2 * time.Millisecond},
		Depths:   []int{1, 4},
		Int16:    true,
	}
}

// DefaultSweepOptions is the full sweep: more load per cell and a
// finer depth grid, for the EXPERIMENTS.md capacity table.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Cores:    4,
		Epochs:   4,
		Requests: 128,
		Clients:  16,
		Seed:     1,
		Windows:  []time.Duration{0, 1 * time.Millisecond, 2 * time.Millisecond},
		Depths:   []int{1, 2, 4},
		Int16:    true,
	}
}

// sweepPrecisions lists the datapaths the sweep serves.
func sweepPrecisions(opt SweepOptions) []fixed.Precision {
	if opt.Int16 {
		return []fixed.Precision{fixed.Float32, fixed.Int16}
	}
	return []fixed.Precision{fixed.Float32}
}

// sweepModels trains the sweep fixture: the Quick-profile MLP under
// all four schemes at every swept precision.
func sweepModels(opt SweepOptions, log io.Writer) ([]*Model, error) {
	spec := core.Table4Nets(core.Quick)[0]
	ds := spec.Data(spec.Seed)
	return NewModels(Config{Log: log}, spec, ds,
		[]core.Scheme{core.Baseline, core.StructureLevel, core.SS, core.SSMask},
		sweepPrecisions(opt), opt.Cores, opt.Epochs, spec.Seed)
}

// SweepRow is one line of the serving capacity table.
type SweepRow struct {
	Window    time.Duration
	Depth     int
	Precision string
	Report    LoadReport
}

// Sweep trains the fixture pool once and measures closed-loop serving
// capacity across the (window, depth, precision) grid.
func Sweep(opt SweepOptions, log io.Writer) ([]SweepRow, error) {
	models, err := sweepModels(opt, log)
	if err != nil {
		return nil, err
	}
	return sweepGrid(opt, models, log)
}

// sweepGrid measures every (window, depth, precision) cell of opt's
// grid on a fresh server over models; a cell's load mix is every model
// at that precision.
func sweepGrid(opt SweepOptions, models []*Model, log io.Writer) ([]SweepRow, error) {
	logf(log, "serve sweep: %d models, %d requests x %d clients per cell",
		len(models), opt.Requests, opt.Clients)

	var rows []SweepRow
	for _, window := range opt.Windows {
		for _, depth := range opt.Depths {
			for _, prec := range sweepPrecisions(opt) {
				var mix []ModelKey
				for _, m := range models {
					if m.Key.Precision == prec {
						mix = append(mix, m.Key)
					}
				}
				srv, err := New(Config{
					QueueCap: opt.Requests,
					Window:   window,
					MaxBatch: 16,
					Depth:    depth,
				}, models)
				if err != nil {
					return nil, err
				}
				rep := RunLoad(context.Background(), srv, LoadConfig{
					Requests: opt.Requests,
					Clients:  opt.Clients,
					Mix:      mix,
					Seed:     opt.Seed,
					Trace:    true,
				})
				srv.Close()
				rows = append(rows, SweepRow{Window: window, Depth: depth, Precision: prec.String(), Report: rep})
				logf(log, "  window=%-6s depth=%d %-7s  %s", window, depth, prec, rep)
			}
		}
	}
	return rows, nil
}

// WriteSweepTable renders the sweep as the EXPERIMENTS.md-style table,
// with the traced per-phase p99 split (queue wait vs simulation) and
// the tail-blame phase next to the aggregate percentiles.
func WriteSweepTable(w io.Writer, rows []SweepRow) {
	fmt.Fprintf(w, "%-8s %-6s %-8s %8s %10s %10s %10s %10s %10s %8s\n",
		"window", "depth", "prec", "qps", "p50", "p90", "p99", "q_p99", "sim_p99", "blame")
	for _, r := range rows {
		blame := "-"
		if r.Report.Traced > 0 {
			blame = r.Report.TailBlame.String()
		}
		fmt.Fprintf(w, "%-8s %-6d %-8s %8.1f %10s %10s %10s %10s %10s %8s\n",
			r.Window, r.Depth, r.Precision, r.Report.QPS, r.Report.P50, r.Report.P90, r.Report.P99,
			r.Report.PhaseP99[PhaseQueue], r.Report.PhaseP99[PhaseSim], blame)
	}
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
