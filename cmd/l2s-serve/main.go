// Command l2s-serve is the batched inference serving layer: it trains
// a pool of models (one per parallelization scheme, each optionally
// quantized to int16) over a benchmark network, then serves HTTP/JSON
// inference requests through a dispatcher that batches concurrent
// requests into pipelined CMP simulation passes.
//
// Endpoints:
//
//	POST /v1/infer   {"model":"ssmask","precision":"int16","sample":3}
//	GET  /v1/models  servable models
//	GET  /healthz    liveness + request counters
//	GET  /metrics    Prometheus exposition (with -obs, -pprof, -live, -health or -v)
//
// Admission is a bounded queue: when it overflows, requests are
// answered 429 with a Retry-After hint. SIGTERM/SIGINT drain
// gracefully: admission stops, queued requests finish, then the
// process exits.
//
// With -script the server replays a JSONL request script (one
// {"model","precision","samples":[...]} step per line, each step one
// dynamic batch) instead of listening, writes the -obs flight record,
// and exits; a fixed script yields byte-identical records and -live
// streams at any -workers count, which is how CI holds the serving
// path to the repo's determinism standard.
//
// Request tracing: -serve-trace streams one validated JSONL record per
// executed batch and (sampled, see -trace-sample) answered request,
// with the wall-clock lifecycle phases queue→batch→sim→dequant→respond
// telescoping exactly to the total latency. Individual HTTP requests
// opt in with POST /v1/infer?trace=1, which also echoes the breakdown
// in the response. In -script mode records are Stable class (volatile
// fields stripped, byte-identical across -workers) unless -trace-wall;
// -serve-perfetto renders the combined wall-clock serve plane next to
// the simulated-cycle batch timelines.
//
// The observability flags -obs, -obs-timing, -pprof, -timeline, -live,
// -live-clock, -health and -workers are shared by every l2s command
// (internal/obs/live.Run); the serve trace and the combined Perfetto
// trace are written before the shared outputs.
//
// Usage:
//
//	l2s-serve -net mlp -cores 4 -addr :8080
//	l2s-serve -net mlp -schemes baseline,ssmask -precisions float32,int16
//	l2s-serve -net mlp -script reqs.jsonl -obs record.json -workers 4
//	l2s-serve -net mlp -script reqs.jsonl -serve-trace st.jsonl -trace-wall \
//	          -timeline serve.tl -serve-perfetto combined.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"learn2scale/internal/core"
	"learn2scale/internal/fixed"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-serve: ")

	netName := flag.String("net", "mlp", "network to serve: mlp|lenet|convnet|caffenet")
	cores := flag.Int("cores", 4, "simulated CMP core count per model")
	schemesCSV := flag.String("schemes", "baseline,struct,ss,ssmask", "comma-separated schemes to train and serve")
	precCSV := flag.String("precisions", "float32", "comma-separated datapaths to serve: float32,int16")
	epochs := flag.Int("epochs", 0, "training epochs (0 = per-network default)")
	seed := flag.Int64("seed", 1, "training/dataset seed")
	addr := flag.String("addr", ":8080", "listen address")
	window := flag.Duration("window", 2*time.Millisecond, "dynamic batching window (0 = batch-size-1 serving)")
	maxBatch := flag.Int("max-batch", 16, "largest dynamic batch")
	queueCap := flag.Int("queue", 64, "admission queue bound (overflow answers 429)")
	depth := flag.Int("depth", 4, "pipeline depth batches are simulated at")
	script := flag.String("script", "", "replay this JSONL request script instead of listening, then exit")
	serveTrace := flag.String("serve-trace", "", "append request-scoped lifecycle traces (JSONL) here")
	traceSample := flag.Int("trace-sample", 1, "record every Nth answered request (?trace=1 requests always record)")
	traceWall := flag.Bool("trace-wall", false, "keep volatile wall-clock phase fields in -script mode (breaks byte-compare; live serving always keeps them)")
	servePerfetto := flag.String("serve-perfetto", "", "write the combined serve-plane + sim-cycle Perfetto trace here (needs wall-clock traces)")
	verbose := flag.Bool("v", false, "print training progress and the observability summary")
	run := live.NewRun(flag.CommandLine)
	flag.Parse()
	if err := run.Start(*verbose); err != nil {
		log.Fatal(err)
	}
	tl := run.Timeline()

	spec, ok := core.NetByName(core.Table4Nets(core.Quick), *netName)
	if !ok {
		log.Fatalf("unknown network %q (want mlp|lenet|convnet|caffenet)", *netName)
	}
	schemes, err := parseSchemes(*schemesCSV)
	if err != nil {
		log.Fatal(err)
	}
	precisions, err := parsePrecisions(*precCSV)
	if err != nil {
		log.Fatal(err)
	}

	// Request tracing: -serve-trace streams validated JSONL records;
	// -serve-perfetto keeps them in memory for the combined render. In
	// script mode records default to the Stable class (volatile
	// wall-clock fields stripped) so they byte-compare across -workers;
	// -trace-wall opts into the wall-clock fields, which live serving
	// always keeps.
	var sink *serve.TraceSink
	var traceFile *os.File
	if *serveTrace != "" || *servePerfetto != "" {
		if *serveTrace != "" {
			traceFile, err = os.Create(*serveTrace)
			if err != nil {
				log.Fatal(err)
			}
		}
		opt := serve.TraceOptions{
			Stable: *script != "" && !*traceWall,
			Sample: *traceSample,
			Keep:   *servePerfetto != "",
			Tool:   "l2s-serve",
		}
		if *servePerfetto != "" && opt.Stable {
			log.Fatal("-serve-perfetto needs wall-clock traces: add -trace-wall in -script mode")
		}
		if traceFile != nil {
			sink = serve.NewTraceSink(traceFile, opt)
		} else {
			sink = serve.NewTraceSink(nil, opt)
		}
	}

	cfg := serve.Config{
		QueueCap: *queueCap,
		Window:   *window,
		MaxBatch: *maxBatch,
		Depth:    *depth,
		Obs:      run.Registry(),
		Timeline: tl,
		Trace:    sink,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	ds := spec.Data(*seed)
	models, err := serve.NewModels(cfg, spec, ds, schemes, precisions, *cores, *epochs, *seed)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(cfg, models)
	if err != nil {
		log.Fatal(err)
	}
	for _, key := range srv.Keys() {
		log.Printf("serving %s (%d cores, depth %d)", key, *cores, *depth)
	}

	if *script != "" {
		runScript(srv, *script)
	} else {
		listen(srv, *addr, run.Metrics())
	}
	srv.Close()

	st := srv.Stats()
	meta := map[string]string{
		"net":        *netName,
		"cores":      strconv.Itoa(*cores),
		"schemes":    *schemesCSV,
		"precisions": *precCSV,
		"depth":      strconv.Itoa(*depth),
		"requests":   strconv.FormatInt(st.Admitted, 10),
		"batches":    strconv.FormatInt(st.Batches, 10),
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatalf("serve-trace: %v", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("serve-trace written to %s", *serveTrace)
		}
	}
	if *servePerfetto != "" {
		f, err := os.Create(*servePerfetto)
		if err != nil {
			log.Fatal(err)
		}
		if err := serve.WriteServePerfetto(f, sink.Log(), tl, "l2s-serve", meta); err != nil {
			log.Fatalf("serve-perfetto: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("combined serve+sim Perfetto written to %s", *servePerfetto)
	}
	var summaryW *os.File
	if *verbose {
		summaryW = os.Stderr
	}
	if err := run.Finish("l2s-serve", meta, summaryW); err != nil {
		log.Fatal(err) // health violations exit non-zero
	}
}

// runScript replays a JSONL request script and prints one summary line
// per step.
func runScript(srv *serve.Server, path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := serve.ReadScript(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	out, err := srv.RunScript(context.Background(), steps)
	if err != nil {
		log.Fatal(err)
	}
	for i, resps := range out {
		classes := make([]string, len(resps))
		for j, r := range resps {
			classes[j] = strconv.Itoa(r.Class)
		}
		fmt.Printf("step %d: %s/%s batch=%d sim_cycles=%d classes=[%s]\n",
			i, resps[0].Model, resps[0].Precision, resps[0].BatchSize,
			resps[len(resps)-1].SimCycles, strings.Join(classes, " "))
	}
}

// listen serves HTTP until SIGTERM/SIGINT, then drains gracefully.
// A non-nil metrics handler is mounted at /metrics.
func listen(srv *serve.Server, addr string, metrics http.Handler) {
	extra := map[string]http.Handler{}
	if metrics != nil {
		extra["/metrics"] = metrics
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(extra)}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("%s: draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		hs.Shutdown(ctx)
		cancel()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}
}

func parseSchemes(csv string) ([]core.Scheme, error) {
	var out []core.Scheme
	for _, name := range strings.Split(csv, ",") {
		s, err := serve.ParseModelName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePrecisions(csv string) ([]fixed.Precision, error) {
	var out []fixed.Precision
	for _, name := range strings.Split(csv, ",") {
		p, err := fixed.ParsePrecision(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
