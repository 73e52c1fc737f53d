package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aorta/internal/frontdoor"
)

// runOpts sizes one run.
type runOpts struct {
	// warm runs at full rate before anything is measured: pools fill,
	// sessions dial, the first photos move the cameras off their home
	// positions.
	warm time.Duration
	// window is the measured stretch; a traced run splits it in two.
	window time.Duration
	// setups is how many times the run assembles the system to report the
	// median set-up time; the last assembly is the one that gets driven.
	setups int
	traced bool
}

func defaultOpts(window time.Duration, traced bool) runOpts {
	o := runOpts{warm: 3 * time.Second, window: window, setups: 5, traced: traced}
	if o.traced {
		o.setups = 1 // set-up time is an end-to-end metric; traced runs do not report it
	}
	return o
}

// maxLateP99 is the generator lateness beyond which the load was no
// longer the one scheduled: half a scan epoch. (Operations are timed from
// their due time, so lateness below this still counts against the system.)
const maxLateP99 = epochWall / 2

// summary is what one measured window yields.
type summary struct {
	events, eventsFailed int
	stmts, stmtsFailed   int
	eventMs, stmtMs      []float64
	detectMs, sampleMs   []float64 // the two halves of each event latency
	dups                 int
	problems             []string
	perLayer             map[string]float64
	allocsPerOp          float64
	allocKBPerOp         float64
}

// result is one run of one workload.
type result struct {
	workload string
	seed     int64
	hash     string
	setupS   float64
	sum      *summary // the untraced window
	// perLayer is filled by a traced run only.
	perLayer map[string]float64
	invalid  []string
}

// endToEnd returns the contract's end-to-end metrics.
func (r *result) endToEnd() map[string]float64 {
	s := r.sum
	return map[string]float64{
		"setup_s":         r.setupS,
		"event_p50_ms":    percentile(s.eventMs, 50),
		"event_p99_ms":    percentile(s.eventMs, 99),
		"allocs_per_op":   s.allocsPerOp,
		"alloc_kb_per_op": s.allocKBPerOp,
	}
}

func (r *result) attempted() int { return r.sum.events + r.sum.stmts }
func (r *result) failed() int    { return r.sum.eventsFailed + r.sum.stmtsFailed }

// correct reports whether every output check passed and the run is valid.
func (r *result) correct() bool { return r.failed() == 0 && len(r.invalid) == 0 }

// outDir is where journals and trace files go: bench/out, whether the
// command runs from the repository root or from bench/.
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runWorkload sets the system up, offers it the seed's script and tears
// it down. Untraced, it measures one window of the given length for the
// end-to-end metrics. Traced, it splits the window in two — wrappers off,
// then on — and follows with the isolated drives for the per-layer
// metrics.
func runWorkload(w *workload, seed int64, o runOpts) (*result, error) {
	ctx := context.Background()
	res := &result{workload: w.name, seed: seed}
	dir := filepath.Join(outDir(), fmt.Sprintf("wal-%s-%d", w.name, os.Getpid()))
	var tr *tracer
	if o.traced {
		tr = &tracer{}
	}
	var sys *system
	var took []float64
	for k := 0; k < o.setups; k++ {
		if sys != nil {
			sys.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if sys, err = assemble(w, seed, dir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	defer func() { sys.close() }()
	res.setupS = median(took)

	marks := []time.Duration{o.warm, o.warm + o.window}
	if o.traced {
		marks = []time.Duration{o.warm, o.warm + o.window/2, o.warm + o.window}
	}
	sc := w.generate(seed, &sys.facts, marks[len(marks)-1])
	res.hash = sc.hash()

	runtime.GC()
	d, edges, err := drive(ctx, sys, sc, marks, func(i int) {
		if o.traced {
			tr.on.Store(i == 1)
		}
	})
	if err != nil {
		return nil, err
	}
	res.sum = d.summarize(marks[0], marks[1], edges[0], edges[1])
	res.invalid = d.validity()

	if o.traced {
		tsum := d.summarize(marks[1], marks[2], edges[1], edges[2])
		res.perLayer = tsum.perLayer
		d.tracedMetrics(tr, marks[1], marks[2], res.perLayer)
		res.perLayer["bench.trace_overhead_pct"] = 100 * (ratio(
			percentile(tsum.eventMs, 50), percentile(res.sum.eventMs, 50))/2 + ratio(
			percentile(tsum.stmtMs, 50), percentile(res.sum.stmtMs, 50))/2 - 1)
		// Failures in the traced half count as this run's failures too.
		res.sum.events += tsum.events
		res.sum.stmts += tsum.stmts
		res.sum.eventsFailed += tsum.eventsFailed
		res.sum.stmtsFailed += tsum.stmtsFailed
		res.sum.problems = append(res.sum.problems, tsum.problems...)
		if err := os.MkdirAll(outDir(), 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir(), "trace-"+w.name+".json")
		if err := writeTrace(path, d.spans(tr, marks[1], marks[2])); err != nil {
			return nil, err
		}
		sys.stopEngines()
		if err := isolatedDrives(ctx, sys, sc, res.perLayer); err != nil {
			return nil, fmt.Errorf("isolated drives: %w", err)
		}
	}
	return res, nil
}

// validity lists the reasons the run's load was not the scheduled one.
func (d *driver) validity() []string {
	if p := percentile(d.lateMs(), 99); p > ms(maxLateP99) {
		return []string{fmt.Sprintf("generator lateness p99 %.3f ms exceeds %v", p, maxLateP99)}
	}
	return nil
}

// lateMs is how late each generator woke for each operation, both streams.
func (d *driver) lateMs() []float64 {
	out := make([]float64, 0, len(d.eventLate)+len(d.stmts))
	for _, l := range d.eventLate {
		out = append(out, ms(l))
	}
	for _, c := range d.conns {
		for _, l := range c.late {
			out = append(out, ms(l))
		}
	}
	return out
}

// summarize reduces the operations that were due in [from, to) and the
// counter deltas between the two edges read at those marks.
func (d *driver) summarize(from, to time.Duration, a, b edge) *summary {
	s := &summary{perLayer: map[string]float64{}}
	in := func(due time.Duration) bool { return due >= from && due < to }
	problem := func(msg string) {
		if len(s.problems) < 10 {
			s.problems = append(s.problems, msg)
		}
	}

	for _, r := range d.tracker.recs {
		if !in(r.ev.due) {
			continue
		}
		s.events++
		s.dups += r.dups
		lat := r.done.Sub(r.dueAt)
		switch {
		case r.done.IsZero():
			s.eventsFailed++
			msg := r.err
			if msg == "" {
				msg = fmt.Sprintf("%s %s: no OK outcome", r.ev.query, r.ev.eventKey)
			}
			problem(msg)
		case lat > opTimeout:
			s.eventsFailed++
			problem(fmt.Sprintf("%s %s: outcome after %v", r.ev.query, r.ev.eventKey, lat))
		case r.err != "":
			s.eventsFailed++
			problem(r.err)
		default:
			s.eventMs = append(s.eventMs, ms(lat))
			s.detectMs = append(s.detectMs, ms(r.detectToOutcome))
			s.sampleMs = append(s.sampleMs, ms(lat-r.detectToOutcome))
		}
	}
	for _, msg := range d.tracker.stray {
		problem(msg)
	}
	s.eventsFailed += len(d.tracker.stray)

	for i := range d.stmts {
		r := &d.stmts[i]
		if !in(r.st.due) {
			continue
		}
		s.stmts++
		lat := r.done.Sub(r.dueAt)
		switch {
		case r.done.IsZero():
			s.stmtsFailed++
			msg := r.err
			if msg == "" {
				msg = fmt.Sprintf("%.50s: no frame", r.st.text)
			}
			problem(msg)
		case r.err != "":
			s.stmtsFailed++
			problem(r.err)
		case lat > opTimeout:
			s.stmtsFailed++
			problem(fmt.Sprintf("%.50s: frame after %v", r.st.text, lat))
		default:
			s.stmtMs = append(s.stmtMs, ms(lat))
		}
	}

	ops := float64(s.events + s.stmts)
	s.allocsPerOp = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	s.allocKBPerOp = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024, ops)

	m := s.perLayer
	m["bench.gen_late_p99_ms"] = percentile(d.lateMs(), 99)
	m["bench.event_dup_share"] = ratio(float64(s.dups+d.tracker.lateDups), float64(s.events))
	m["bench.event_deferred_share"] = ratio(float64(d.tracker.deferredN), float64(len(d.tracker.recs)))
	m["bench.cpu_ms_per_op"] = ratio(ms(b.cpu-a.cpu), ops)
	m["bench.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["bench.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["bench.heap_live_mb"] = float64(b.mem.HeapAlloc) / (1 << 20)
	m["bench.rss_peak_mb"] = b.rssPeakMB
	m["frontdoor.stmt_p50_ms"] = percentile(s.stmtMs, 50)
	m["frontdoor.stmt_p90_ms"] = percentile(s.stmtMs, 90)
	m["frontdoor.stmt_p99_ms"] = percentile(s.stmtMs, 99)
	m["core.detect_to_outcome_p50_ms"] = percentile(s.detectMs, 50)
	m["core.sample_to_detect_p50_ms"] = percentile(s.sampleMs, 50)
	layerDeltas(m, a.layers, b.layers, to-from, len(d.sys.nodes), ops)
	return s
}

// tracedMetrics adds the (W) per-layer metrics: what the harness-owned
// wrappers saw during the traced window.
func (d *driver) tracedMetrics(tr *tracer, from, to time.Duration, m map[string]float64) {
	tr.mu.Lock()
	execs := append([]execSpan(nil), tr.execs...)
	tr.mu.Unlock()

	// The outermost Exec span of each client statement, by tag.
	outer := spanCoreExec
	if d.sys.router != nil {
		outer = spanClusterExec
	}
	byTag := map[string]execSpan{}
	var shardSide []execSpan
	for _, e := range execs {
		if e.name == outer {
			byTag[e.id] = e
		}
		if e.name == spanCoreExec {
			shardSide = append(shardSide, e)
		}
	}

	var self, all, adhoc, mgmt, routerMs, fanoutSelf []float64
	var bytesRead int64
	stmts, shardSpans, routed, partial := 0, 0, 0, 0
	for _, c := range d.conns {
		bytesRead += c.bytesAt[2] - c.bytesAt[1]
	}
	for i := range d.stmts {
		r := &d.stmts[i]
		if r.st.due < from || r.st.due >= to || r.done.IsZero() {
			continue
		}
		stmts++
		if r.code == frontdoor.CodePartial {
			partial++
		}
		e, ok := byTag[fmt.Sprint(i)]
		if !ok {
			continue
		}
		self = append(self, ms(r.done.Sub(r.dueAt)-coverage(r.dueAt, r.done, [][2]time.Time{{e.start, e.end}})))
		if d.sys.router == nil {
			continue
		}
		routerMs = append(routerMs, ms(e.end.Sub(e.start)))
		routed++
		var children [][2]time.Time
		for _, c := range childrenOf(e, shardSide) {
			shardSpans++
			children = append(children, [2]time.Time{c.start, c.end})
		}
		fanoutSelf = append(fanoutSelf, ms(e.end.Sub(e.start)-coverage(e.start, e.end, children)))
	}
	for _, e := range shardSide {
		v := ms(e.end.Sub(e.start))
		all = append(all, v)
		switch frontdoor.Classify(e.stmt) {
		case frontdoor.ClassAdHoc:
			adhoc = append(adhoc, v)
		case frontdoor.ClassManagement:
			mgmt = append(mgmt, v)
		}
	}
	ops := float64(stmts)
	for _, r := range d.tracker.recs {
		if r.ev.due >= from && r.ev.due < to {
			ops++
		}
	}
	m["frontdoor.self_p50_ms"] = percentile(self, 50)
	m["frontdoor.resp_kb_per_stmt"] = ratio(float64(bytesRead)/1024, float64(stmts))
	m["core.exec_p50_ms"] = percentile(all, 50)
	m["core.exec_adhoc_p50_ms"] = percentile(adhoc, 50)
	m["core.exec_mgmt_p50_ms"] = percentile(mgmt, 50)
	m["comm.wire_kb_per_op"] = ratio(float64(tr.wireBytes.Load())/1024, ops)
	m["comm.roundtrips_per_op"] = ratio(float64(tr.wireWrites.Load()), ops)
	m["cluster.exec_p50_ms"] = percentile(routerMs, 50)
	m["cluster.fanout_self_p50_ms"] = percentile(fanoutSelf, 50)
	m["cluster.shards_per_stmt"] = ratio(float64(shardSpans), float64(routed))
	m["cluster.partial_share"] = ratio(float64(partial), float64(stmts))
}

// childrenOf returns the shard-side Exec spans a routed statement caused:
// same statement text, inside the router span's interval. The router
// retags statements per shard connection, so text and time are the only
// link; two identical statements in flight at once share their children,
// which the medians tolerate.
func childrenOf(parent execSpan, shardSide []execSpan) []execSpan {
	var out []execSpan
	for _, c := range shardSide {
		if c.stmt == parent.stmt && !c.start.Before(parent.start) && !c.end.After(parent.end) {
			out = append(out, c)
		}
	}
	return out
}

// spans renders the traced window as parent-linked spans.
func (d *driver) spans(tr *tracer, from, to time.Duration) []span {
	origin := d.start.Add(from)
	rel := func(t time.Time) int64 { return t.Sub(origin).Microseconds() }
	var out []span
	for i := range d.stmts {
		r := &d.stmts[i]
		if r.st.due < from || r.st.due >= to || r.done.IsZero() {
			continue
		}
		out = append(out, span{Name: spanClient, ID: fmt.Sprint(i), Start: rel(r.dueAt), End: rel(r.done)})
	}
	tr.mu.Lock()
	execs := append([]execSpan(nil), tr.execs...)
	tr.mu.Unlock()
	var routed []execSpan
	for _, e := range execs {
		if e.name == spanClusterExec {
			routed = append(routed, e)
		}
	}
	for _, e := range execs {
		sp := span{Name: e.name, ID: e.id, Node: e.node, Start: rel(e.start), End: rel(e.end)}
		switch {
		case e.name == spanClusterExec, d.sys.router == nil:
			sp.Parent = spanClient + "/" + e.id
		default:
			// A shard-side span hangs under the latest-starting router
			// span of the same text that contains it.
			for _, p := range routed {
				if p.stmt == e.stmt && !e.start.Before(p.start) && !e.end.After(p.end) {
					sp.Parent = spanClusterExec + "/" + p.id
				}
			}
		}
		out = append(out, sp)
	}
	for i, r := range d.tracker.recs {
		if r.ev.due < from || r.ev.due >= to || r.done.IsZero() {
			continue
		}
		id := fmt.Sprintf("e%d", i)
		out = append(out,
			span{Name: spanEvent, ID: id, Start: rel(r.dueAt), End: rel(r.done)},
			span{Name: spanDetect, ID: id, Parent: spanEvent + "/" + id,
				Start: rel(r.done.Add(-r.detectToOutcome)), End: rel(r.done)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
