// Command l2s-top is a terminal monitor for running l2s workloads: it
// tails the windowed JSONL telemetry stream another command writes
// with -live, or polls the /metrics exposition a command serves with
// -pprof, and renders live training progress (per-epoch loss and
// accuracy), NoC pressure (packet/flit rates, link load, retransmit
// and loss rates, latency quantiles) and pipeline stage occupancy.
//
// Usage:
//
//	l2s-train -net mlp -live stream.jsonl &
//	l2s-top -follow stream.jsonl
//
//	l2s-sim -net alexnet -pprof localhost:6060 &
//	l2s-top -metrics localhost:6060
//
//	l2s-top -follow stream.jsonl -once     # one frame, no screen control
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"learn2scale/internal/obs/live"
	"learn2scale/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-top: ")

	follow := flag.String("follow", "", "tail this live telemetry JSONL stream (written by a command's -live flag)")
	metrics := flag.String("metrics", "", "poll the Prometheus exposition at this host:port (served by a command's -pprof flag)")
	interval := flag.Duration("interval", time.Second, "refresh period")
	once := flag.Bool("once", false, "render a single frame and exit (no screen control)")
	flag.Parse()

	switch {
	case *follow != "" && *metrics != "":
		log.Fatal("use -follow or -metrics, not both")
	case *follow != "":
		followStream(*follow, *interval, *once)
	case *metrics != "":
		pollMetrics(*metrics, *interval, *once)
	default:
		log.Fatal("nothing to watch: give -follow stream.jsonl or -metrics host:port")
	}
}

// --- JSONL follow mode ---

// followStream tails the stream file, re-rendering on every window
// that appears. It tolerates the file not existing yet (the workload
// may not have started) and never gives up: the stream is append-only
// and the "final" window marks the end. Each refresh validates the
// complete lines written so far with live.ReadStream; a trailing line
// with no newline is still being written and waits for the next one.
func followStream(path string, interval time.Duration, once bool) {
	for {
		var snaps []live.WindowSnap
		if data, err := os.ReadFile(path); err == nil {
			complete := data[:bytes.LastIndexByte(data, '\n')+1]
			if snaps, err = live.ReadStream(bytes.NewReader(complete)); err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
		if len(snaps) > 0 {
			render(snaps, once)
			if once || snaps[len(snaps)-1].Label == "final" {
				return
			}
		} else if once {
			log.Fatalf("%s: no windows yet", path)
		}
		time.Sleep(interval)
	}
}

// render draws one frame from the stream's history: the latest window
// in detail, trends (epoch series) from the whole history.
func render(snaps []live.WindowSnap, once bool) {
	last := snaps[len(snaps)-1]
	var b strings.Builder
	if !once {
		b.WriteString("\x1b[H\x1b[2J") // home + clear
	}
	fmt.Fprintf(&b, "l2s-top — window %d (%s, span %g) — %d windows total\n\n",
		last.Window, last.Label, last.Span, len(snaps))

	// Training progress: per-epoch loss/acc gauges accumulate across
	// windows; each epoch window carries its own epoch's values.
	type epoch struct{ loss, acc float64 }
	epochs := map[string]*epoch{}
	var keys []string
	for _, s := range snaps {
		for _, g := range s.Gauges {
			name := g.Name
			i := strings.Index(name, ".epoch.")
			if i < 0 {
				continue
			}
			rest := name[i+len(".epoch."):]
			j := strings.Index(rest, ".")
			if j < 0 {
				continue
			}
			key, field := name[:i+len(".epoch.")]+rest[:j], rest[j+1:]
			e := epochs[key]
			if e == nil {
				e = &epoch{}
				epochs[key] = e
				keys = append(keys, key)
			}
			switch field {
			case "loss":
				e.loss = g.Last
			case "acc":
				e.acc = g.Last
			}
		}
	}
	if len(keys) > 0 {
		b.WriteString("training\n")
		sort.Strings(keys)
		start := 0
		if len(keys) > 8 {
			start = len(keys) - 8
		}
		for _, k := range keys[start:] {
			e := epochs[k]
			fmt.Fprintf(&b, "  %-28s loss %-8.4f acc %5.1f%%  %s\n", k, e.loss, e.acc*100, bar(e.acc, 24))
		}
		b.WriteString("\n")
	}

	// NoC pressure from the latest window that carried NoC counters.
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		var lines []string
		for _, c := range s.Counters {
			if strings.HasPrefix(c.Name, "noc.") || strings.HasPrefix(c.Name, "sim.") {
				lines = append(lines, fmt.Sprintf("  %-28s %12d total  %10.4g/u", c.Name, c.Total, c.Rate))
			}
		}
		for _, h := range s.Hists {
			lines = append(lines, fmt.Sprintf("  %-28s p50 %-7.4g p90 %-7.4g p99 %-7.4g max %d", h.Name, h.P50, h.P90, h.P99, h.Max))
		}
		for _, g := range s.Gauges {
			if strings.Contains(g.Name, "link_load") || strings.Contains(g.Name, "occupancy_high_water") {
				lines = append(lines, fmt.Sprintf("  %-28s %.4g", g.Name, g.Last))
			}
		}
		if len(lines) > 0 {
			fmt.Fprintf(&b, "noc / sim (window %d)\n%s\n\n", s.Window, strings.Join(lines, "\n"))
			break
		}
	}

	// Serving-plane phase breakdown from the latest window carrying the
	// serve.phase.* histograms a tracing dispatcher records, one row per
	// lifecycle phase in serve.PhaseNames order (queue→batch→sim→
	// dequant→respond), not histogram-name order. The meter is each
	// phase's p50 as a share of the summed p50s — an approximation for
	// eyeballing where time goes, NOT the telescoping identity: that
	// holds per request, but quantiles don't sum across phases.
	for i := len(snaps) - 1; i >= 0; i-- {
		type quantiles struct {
			p50, p90, p99 float64
		}
		byName := map[string]quantiles{}
		var total float64
		for _, h := range snaps[i].Hists {
			if strings.HasPrefix(h.Name, "serve.phase.") {
				name := strings.TrimSuffix(strings.TrimPrefix(h.Name, "serve.phase."), "_us")
				byName[name] = quantiles{h.P50, h.P90, h.P99}
				total += h.P50
			}
		}
		if len(byName) > 0 {
			fmt.Fprintf(&b, "serving phases (window %d, µs; meter ≈ p50 share of Σp50)\n", snaps[i].Window)
			for _, name := range serve.PhaseNames {
				q, ok := byName[name]
				if !ok {
					continue
				}
				share := 0.0
				if total > 0 {
					share = q.p50 / total
				}
				fmt.Fprintf(&b, "  %-10s p50 %-8.4g p90 %-8.4g p99 %-8.4g %s\n",
					name, q.p50, q.p90, q.p99, bar(share, 24))
			}
			b.WriteString("\n")
			break
		}
	}

	// Pipeline stage occupancy bars from the latest window carrying them.
	for i := len(snaps) - 1; i >= 0; i-- {
		var lines []string
		for _, g := range snaps[i].Gauges {
			if strings.HasPrefix(g.Name, "pipeline.stage.") && strings.HasSuffix(g.Name, ".occupancy") {
				st := strings.TrimSuffix(strings.TrimPrefix(g.Name, "pipeline.stage."), ".occupancy")
				lines = append(lines, fmt.Sprintf("  stage %s  %5.1f%%  %s", st, g.Last*100, bar(g.Last, 32)))
			}
		}
		if len(lines) > 0 {
			fmt.Fprintf(&b, "pipeline stages (window %d)\n%s\n", snaps[i].Window, strings.Join(lines, "\n"))
			break
		}
	}

	os.Stdout.WriteString(b.String())
}

// bar renders a unit-interval value as a fixed-width ASCII meter.
func bar(v float64, width int) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	n := int(v*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}

// --- /metrics poll mode ---

// pollMetrics scrapes the exposition every interval and renders the
// l2s families it knows about.
func pollMetrics(addr string, interval time.Duration, once bool) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		samples, err := scrape(client, url)
		if err != nil {
			if once {
				log.Fatal(err)
			}
			fmt.Printf("\x1b[H\x1b[2Jl2s-top — %s unreachable: %v\n", url, err)
			time.Sleep(interval)
			continue
		}
		renderSamples(samples, url, once)
		if once {
			return
		}
		time.Sleep(interval)
	}
}

// scrape fetches the exposition and parses its sample lines with
// live.ParseSample, the parser live.Lint uses. The monitor shows what
// parses and skips a malformed line; l2s-trace -prom rejects it.
func scrape(client *http.Client, url string) ([]live.Sample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var out []live.Sample
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s, err := live.ParseSample(line); err == nil {
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

func renderSamples(samples []live.Sample, url string, once bool) {
	var b strings.Builder
	if !once {
		b.WriteString("\x1b[H\x1b[2J")
	}
	fmt.Fprintf(&b, "l2s-top — %s — %d series\n\n", url, len(samples))
	groups := []struct {
		title  string
		prefix []string
	}{
		{"training", []string{"l2s_train", "l2s_core", "l2s_mlp", "l2s_lenet", "l2s_convnet", "l2s_caffenet"}},
		{"noc / sim", []string{"l2s_noc", "l2s_sim"}},
		{"pipeline", []string{"l2s_pipeline"}},
		{"serving", []string{"l2s_serve"}},
		{"live", []string{"l2s_live"}},
		{"host pool", []string{"l2s_parallel"}},
	}
	shown := map[int]bool{}
	for _, g := range groups {
		var lines []string
		for i, s := range samples {
			for _, p := range g.prefix {
				if strings.HasPrefix(s.Name, p) {
					lines = append(lines, fmt.Sprintf("  %-52s %.6g", s.Name+s.Labels, s.Value))
					shown[i] = true
					break
				}
			}
		}
		if len(lines) > 0 {
			limit := 16
			if len(lines) > limit {
				lines = append(lines[:limit], fmt.Sprintf("  ... %d more", len(lines)-limit))
			}
			fmt.Fprintf(&b, "%s\n%s\n\n", g.title, strings.Join(lines, "\n"))
		}
	}
	var rest int
	for i := range samples {
		if !shown[i] {
			rest++
		}
	}
	if rest > 0 {
		fmt.Fprintf(&b, "(+%d series outside the known groups)\n", rest)
	}
	os.Stdout.WriteString(b.String())
}
