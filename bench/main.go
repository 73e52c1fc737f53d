// Command bench is the repository's end-to-end benchmark: it assembles
// the live system in one process the way cmd/aortad does, drives it from
// outside with an open-loop event stream and an open-loop statement
// stream, checks the outputs, and prints the metrics BENCHMARK.json names.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "run one workload and print the contract's JSON result as the last line (default: all four, as a table)")
	seed := flag.Int64("seed", 1, "seed of the generated stimulus and statement script")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics, span files under bench/out/")
	repeat := flag.Int("repeat", 1, "run the workloads this many times, interleaved, and check the sets agree within the bounds")
	flag.Parse()
	window := time.Duration(*seconds) * time.Second

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, *seed, defaultOpts(window, *trace == 1))
		if err != nil {
			fatal(err)
		}
		report(os.Stderr, res)
		printContract(os.Stdout, res)
		if !res.correct() {
			os.Exit(1)
		}
		return
	}

	ok := true
	sets := make([][]*result, *repeat)
	for k := range sets {
		for _, w := range workloads {
			res, err := runWorkload(w, *seed, defaultOpts(window, *trace == 1))
			if err != nil {
				fatal(err)
			}
			report(os.Stdout, res)
			ok = ok && res.correct()
			sets[k] = append(sets[k], res)
		}
	}
	if *repeat > 1 && !compareSets(os.Stdout, sets) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// units of the end-to-end metrics, as BENCHMARK.json declares them.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"event_p50_ms":    "ms",
	"event_p99_ms":    "ms",
	"allocs_per_op":   "count",
	"alloc_kb_per_op": "KiB",
}

// perLayerUnit derives a per-layer metric's unit from its name; whatever
// names no unit is a count.
func perLayerUnit(name string) string {
	for _, u := range []struct{ part, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_pct", "%"}, {"_share", "share"},
		{"_mb", "MiB"}, {"kb_per_", "KiB"}, {"makespan_vs", "s"},
	} {
		if strings.Contains(name, u.part) {
			return u.unit
		}
	}
	return "count"
}

// report prints one run for a reader.
func report(w io.Writer, r *result) {
	s := r.sum
	fmt.Fprintf(w, "%s  seed %d  script %s\n", r.workload, r.seed, r.hash)
	e := r.endToEnd()
	fmt.Fprintf(w, "  %-18s %10.4f s\n", "setup_s", e["setup_s"])
	fmt.Fprintf(w, "  %-18s %10.3f ms   (n=%d)\n", "event_p50_ms", e["event_p50_ms"], len(s.eventMs))
	fmt.Fprintf(w, "  %-18s %10.3f ms   (n=%d)\n", "event_p99_ms", e["event_p99_ms"], len(s.eventMs))
	fmt.Fprintf(w, "  %-18s %10.5f share (%d of %d)\n", "event_fail_share", ratio(float64(s.eventsFailed), float64(s.events)), s.eventsFailed, s.events)
	fmt.Fprintf(w, "  %-18s %10.3f ms   (n=%d, per-layer: frontdoor.stmt_p50_ms)\n", "stmt_p50_ms", percentile(s.stmtMs, 50), len(s.stmtMs))
	fmt.Fprintf(w, "  %-18s %10.5f share (%d of %d)\n", "stmt_fail_share", ratio(float64(s.stmtsFailed), float64(s.stmts)), s.stmtsFailed, s.stmts)
	fmt.Fprintf(w, "  %-18s %10.1f count\n", "allocs_per_op", e["allocs_per_op"])
	fmt.Fprintf(w, "  %-18s %10.2f KiB\n", "alloc_kb_per_op", e["alloc_kb_per_op"])
	for _, msg := range r.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", msg)
	}
	for _, msg := range s.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
	layers := r.perLayer
	if layers == nil {
		layers = s.perLayer
	}
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-38s %12.4f %s\n", k, layers[k], perLayerUnit(k))
	}
}

// printContract writes the one JSON line the benchmark contract asks for:
// end-to-end metrics from an untraced run, per-layer ones from a traced.
func printContract(w io.Writer, r *result) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if r.perLayer != nil {
		for k, v := range r.perLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // no samples on this workload: the layer did not run
			}
			metrics[k] = metric{v, perLayerUnit(k)}
		}
	} else {
		for k, v := range r.endToEnd() {
			metrics[k] = metric{v, endToEndUnits[k]}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted(), r.failed(), metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err) // NaN in an end-to-end metric: a stream produced no sample
	}
	fmt.Fprintf(w, "%s\n", b)
}

// benchmarkSpec is the part of BENCHMARK.json the repeat check needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets holds every later set of runs against the first: a metric
// agrees when it is no worse than the first set's value by more than its
// bound in BENCHMARK.json. It prints every comparison and reports whether
// all agreed.
func compareSets(w io.Writer, sets [][]*result) bool {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	ok := true
	fmt.Fprintf(w, "\n%-12s %-16s %12s %12s %9s %7s\n", "workload", "metric", "first", "later", "worse by", "bound")
	for k := 1; k < len(sets); k++ {
		for i, later := range sets[k] {
			first := sets[0][i].endToEnd()
			for _, m := range spec.EndToEnd {
				a, b := first[m.Name], later.endToEnd()[m.Name]
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if worse > m.Bound {
					verdict = "  VIOLATION"
					ok = false
				}
				fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %8.1f%% %6.0f%%%s\n",
					later.workload, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	return ok
}
