package live

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"learn2scale/internal/obs"
)

// Exposition: obs metric names are dotted paths with embedded
// indexes, e.g. "train.epoch.03.loss" or "sim.layer.02.fc1.comm_cycles".
// The mangling to Prometheus families is deterministic and stable:
//
//   - the name is split on "."; pure-digit segments become label
//     values keyed by the preceding non-digit segment, every other
//     segment joins the family name with "_";
//   - families get the "l2s_" prefix; counters get the "_total"
//     suffix; characters outside [a-zA-Z0-9_] become "_".
//
// So "train.epoch.03.loss" → l2s_train_epoch_loss{epoch="03"} and one
// family carries every epoch as a labeled series, the shape a scraper
// wants. obs fixed-bucket histograms become native Prometheus
// histograms (cumulative _bucket{le=...} + "+Inf", _sum, _count);
// span hit counts become l2s_span_hits_total{path="..."} and span
// durations l2s_span_seconds_total{path="..."}. When a live Plane is
// attached, its last closed window supplements the cumulative view
// with windowed series: l2s_live_window, per-counter _rate gauges and
// per-histogram _p50/_p90/_p99 gauges.

// labelPair is one rendered label.
type labelPair struct{ k, v string }

// mangled is an obs name after family/label extraction.
type mangled struct {
	family string
	labels []labelPair
}

var invalidChars = regexp.MustCompile(`[^a-zA-Z0-9_]`)

func sanitizeSegment(s string) string {
	return invalidChars.ReplaceAllString(s, "_")
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// mangle splits an obs dotted name into a Prometheus family and
// labels. Deterministic: equal inputs always produce equal outputs.
func mangle(name string) mangled {
	segs := strings.Split(name, ".")
	var fam []string
	var labels []labelPair
	used := map[string]int{}
	for _, seg := range segs {
		if isDigits(seg) && len(fam) > 0 {
			key := fam[len(fam)-1]
			used[key]++
			if n := used[key]; n > 1 {
				key = fmt.Sprintf("%s_%d", key, n)
			}
			labels = append(labels, labelPair{k: key, v: seg})
			continue
		}
		fam = append(fam, sanitizeSegment(seg))
	}
	if len(fam) == 0 {
		fam = []string{"index"}
	}
	return mangled{family: "l2s_" + strings.Join(fam, "_"), labels: labels}
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func renderLabels(labels []labelPair) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf(`%s="%s"`, l.k, escapeLabelValue(l.v))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value the way Prometheus expects:
// integers without exponent, floats via strconv 'g'.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one sample line of a text exposition.
type Sample struct {
	Name   string // full sample name (family, or family_bucket etc.)
	Labels string // rendered label set, "" or "{...}"
	Value  float64
}

type family struct {
	name    string
	typ     string // "counter", "gauge", "histogram"
	help    string
	samples []Sample
}

// expo accumulates families keyed by name.
type expo struct{ fams map[string]*family }

func (e *expo) fam(name, typ, help string) *family {
	f, ok := e.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help}
		e.fams[name] = f
	}
	return f
}

// WriteMetrics renders the registry's current state — and, when p is
// non-nil, the live plane's last closed window — as Prometheus text
// exposition format. Output is deterministically ordered (families
// and series sorted by name).
func WriteMetrics(w io.Writer, r *obs.Registry, p *Plane) error {
	e := &expo{fams: map[string]*family{}}

	for _, class := range []obs.Class{obs.Stable, obs.Volatile} {
		snap := r.SnapshotClass(class)
		for _, c := range snap.Counters {
			m := mangle(c.Name)
			f := e.fam(m.family+"_total", "counter", "obs counter "+familyHelp(c.Name))
			f.samples = append(f.samples, Sample{Name: f.name, Labels: renderLabels(m.labels), Value: float64(c.Value)})
		}
		for _, g := range snap.Gauges {
			m := mangle(g.Name)
			f := e.fam(m.family, "gauge", "obs gauge "+familyHelp(g.Name))
			f.samples = append(f.samples, Sample{Name: f.name, Labels: renderLabels(m.labels), Value: g.Value})
		}
		for _, h := range snap.Histograms {
			m := mangle(h.Name)
			f := e.fam(m.family, "histogram", "obs histogram "+familyHelp(h.Name))
			var cum int64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				lbls := append(append([]labelPair(nil), m.labels...), labelPair{k: "le", v: formatValue(float64(bound))})
				f.samples = append(f.samples, Sample{Name: f.name + "_bucket", Labels: renderLabels(lbls), Value: float64(cum)})
			}
			lbls := append(append([]labelPair(nil), m.labels...), labelPair{k: "le", v: "+Inf"})
			f.samples = append(f.samples, Sample{Name: f.name + "_bucket", Labels: renderLabels(lbls), Value: float64(h.Count)})
			f.samples = append(f.samples, Sample{Name: f.name + "_sum", Labels: renderLabels(m.labels), Value: float64(h.Sum)})
			f.samples = append(f.samples, Sample{Name: f.name + "_count", Labels: renderLabels(m.labels), Value: float64(h.Count)})
		}
		if class == obs.Stable {
			for _, sp := range snap.Spans {
				f := e.fam("l2s_span_hits_total", "counter", "obs span hit counts by path")
				f.samples = append(f.samples, Sample{
					Name: f.name, Labels: renderLabels([]labelPair{{k: "path", v: sp.Path}}), Value: float64(sp.Count),
				})
			}
		} else {
			for _, sp := range snap.Spans {
				if sp.TotalNS == 0 {
					continue
				}
				f := e.fam("l2s_span_seconds_total", "counter", "obs span accumulated wall time by path")
				f.samples = append(f.samples, Sample{
					Name: f.name, Labels: renderLabels([]labelPair{{k: "path", v: sp.Path}}), Value: float64(sp.TotalNS) / 1e9,
				})
			}
		}
	}

	if last := p.Last(); last != nil {
		f := e.fam("l2s_live_window", "gauge", "index of the last closed telemetry window")
		f.samples = append(f.samples, Sample{Name: f.name, Value: float64(last.Window)})
		for _, c := range last.Counters {
			m := mangle(c.Name)
			f := e.fam(m.family+"_rate", "gauge", "per-window rate of obs counter "+familyHelp(c.Name))
			f.samples = append(f.samples, Sample{Name: f.name, Labels: renderLabels(m.labels), Value: c.Rate})
		}
		for _, h := range last.Hists {
			m := mangle(h.Name)
			for _, q := range []struct {
				suffix string
				v      float64
			}{{"_p50", h.P50}, {"_p90", h.P90}, {"_p99", h.P99}} {
				f := e.fam(m.family+q.suffix, "gauge", "windowed quantile of obs histogram "+familyHelp(h.Name))
				f.samples = append(f.samples, Sample{Name: f.name, Labels: renderLabels(m.labels), Value: q.v})
			}
		}
	}

	names := make([]string, 0, len(e.fams))
	for n := range e.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := e.fams[n]
		// Histogram families keep append order: buckets must stay in
		// ascending-le cumulative order, and the name-sorted snapshot
		// already makes that order deterministic. A lexical sort would
		// put le="+Inf" before le="16".
		if f.typ != "histogram" {
			sort.Slice(f.samples, func(i, j int) bool {
				if f.samples[i].Name != f.samples[j].Name {
					return f.samples[i].Name < f.samples[j].Name
				}
				return f.samples[i].Labels < f.samples[j].Labels
			})
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// familyHelp keeps HELP text single-line and free of the original
// name's exotic characters.
func familyHelp(obsName string) string {
	return strings.ReplaceAll(obsName, "\n", " ")
}

// --- promlint-style validation ---

var (
	famRe    = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// ParseSample parses one sample line of a text exposition:
// `name{labels} value`. The label set is kept as written; Lint checks
// its pairs.
func ParseSample(line string) (Sample, error) {
	m := sampleRe.FindStringSubmatch(line)
	if m == nil {
		return Sample{}, fmt.Errorf("malformed sample: %q", line)
	}
	v, err := strconv.ParseFloat(m[3], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("sample %s: value %q is not a float", m[1], m[3])
	}
	return Sample{Name: m[1], Labels: m[2], Value: v}, nil
}

// Lint validates a Prometheus text exposition the way promlint does:
// well-formed HELP/TYPE/sample lines, legal metric and label names,
// every sample covered by a preceding TYPE, counters ending in
// _total, non-negative counter and histogram values, and cumulative
// _bucket series per label set. Returns every problem found.
func Lint(r io.Reader) []error {
	data, err := io.ReadAll(r)
	if err != nil {
		return []error{err}
	}
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	typ := map[string]string{}         // family → type
	helped := map[string]bool{}        // family → HELP seen
	current := ""                      // family of the last TYPE line
	seen := map[string]bool{}          // duplicate series detection
	bucketPrev := map[string]float64{} // per family+labels-sans-le cumulative check

	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, line := range lines {
		n := i + 1
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) < 2 || !famRe.MatchString(parts[0]) {
				fail("line %d: malformed HELP: %q", n, line)
				continue
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !famRe.MatchString(parts[0]) {
				fail("line %d: malformed TYPE: %q", n, line)
				continue
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail("line %d: unknown type %q", n, parts[1])
				continue
			}
			if _, dup := typ[parts[0]]; dup {
				fail("line %d: duplicate TYPE for family %s", n, parts[0])
			}
			typ[parts[0]] = parts[1]
			current = parts[0]
			if parts[1] == "counter" && !strings.HasSuffix(parts[0], "_total") {
				fail("line %d: counter family %s should end in _total", n, parts[0])
			}
			if !helped[parts[0]] {
				fail("line %d: family %s has TYPE but no HELP", n, parts[0])
			}
		case strings.HasPrefix(line, "#"):
			continue // other comments are legal
		default:
			smp, err := ParseSample(line)
			if err != nil {
				fail("line %d: %v", n, err)
				continue
			}
			name, labels, val := smp.Name, smp.Labels, smp.Value
			fam, sub := sampleFamily(name, typ)
			if fam == "" {
				fail("line %d: sample %s has no TYPE declaration", n, name)
				continue
			}
			if fam != current {
				fail("line %d: sample %s outside its family's block (current %s)", n, name, current)
			}
			var le string
			if labels != "" {
				inner := labels[1 : len(labels)-1]
				for _, lp := range splitLabels(inner) {
					lm := labelRe.FindStringSubmatch(lp)
					if lm == nil {
						fail("line %d: sample %s: malformed label %q", n, name, lp)
						continue
					}
					if lm[1] == "le" {
						le = lm[2]
					}
				}
			}
			series := name + labels
			if seen[series] {
				fail("line %d: duplicate series %s", n, series)
			}
			seen[series] = true
			switch {
			case typ[fam] == "counter" && val < 0:
				fail("line %d: counter %s has negative value %v", n, series, val)
			case sub == "bucket":
				if le == "" {
					fail("line %d: histogram bucket %s missing le label", n, series)
					break
				}
				key := fam + stripLE(labels)
				if val < bucketPrev[key] {
					fail("line %d: histogram %s buckets not cumulative (%v < %v)", n, series, val, bucketPrev[key])
				}
				bucketPrev[key] = val
			}
		}
	}
	for fam, t := range typ {
		if t != "histogram" {
			continue
		}
		found := false
		for s := range seen {
			if strings.HasPrefix(s, fam+"_bucket{") && strings.Contains(s, `le="+Inf"`) {
				found = true
				break
			}
		}
		if !found {
			fail("histogram %s has no +Inf bucket", fam)
		}
	}
	return errs
}

// sampleFamily resolves a sample name to its declared family,
// accounting for histogram magic suffixes.
func sampleFamily(name string, typ map[string]string) (fam, sub string) {
	if _, ok := typ[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := typ[base]; ok && (t == "histogram" || t == "summary") {
				return base, suf[1:]
			}
		}
	}
	return "", ""
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\':
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// stripLE removes the le pair from a rendered label set so cumulative
// checks key on the remaining labels.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := labels[1 : len(labels)-1]
	var kept []string
	for _, lp := range splitLabels(inner) {
		if !strings.HasPrefix(lp, `le="`) {
			kept = append(kept, lp)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}
