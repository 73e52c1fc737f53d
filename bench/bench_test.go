package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"aorta/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose: percentile must not rely on order
	for _, c := range []struct{ p, want float64 }{
		{50, 30}, {90, 50}, {99, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN, not a measured zero")
	}
}

func TestCoverageIsUnionClippedToParent(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	got := coverage(at(10), at(100), [][2]time.Time{
		{at(40), at(60)}, {at(0), at(20)}, {at(50), at(70)}, {at(95), at(120)},
	})
	// [10,20) + [40,70) + [95,100)
	if want := 45 * time.Millisecond; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// outcome builds an engine outcome as the tracker sees it: delivered now,
// having taken latency of wall time inside the engine.
func outcome(query, key, device string, latency time.Duration, err error) *core.Outcome {
	o := &core.Outcome{Query: query, EventKey: key, DeviceID: device, Latency: latency * clockScale, Err: err}
	if err != nil {
		o.Failure = core.FailOther
	}
	return o
}

func TestTrackerPairsDedupsAndChecks(t *testing.T) {
	excited, released := 0, 0
	tr := newTracker(2, [][]string{{"camera-1"}, {"camera-2"}},
		func(*event) { excited++ }, func(int) { released++ })
	ev := &event{mote: 0, query: "photo1", eventKey: "s=mote-1"}
	start := time.Now()
	tr.stimulate(ev, start)
	if excited != 1 || tr.pending() != 1 {
		t.Fatalf("excited %d pending %d after one stimulus", excited, tr.pending())
	}

	// A failed attempt does not complete the event, the first OK one does,
	// and it clears the failure; anything further is a duplicate.
	later := start.Add(50 * time.Millisecond)
	tr.observe(outcome("photo1", "s=mote-1", "camera-1", 10*time.Millisecond, errors.New("boom")), later)
	if tr.pending() != 1 || tr.recs[0].err == "" {
		t.Fatal("a failed outcome must leave the event pending with its error noted")
	}
	tr.observe(outcome("photo1", "s=mote-1", "camera-1", 10*time.Millisecond, nil), later)
	tr.observe(outcome("photo1", "s=mote-1", "camera-1", 10*time.Millisecond, nil), later.Add(time.Millisecond))
	r := tr.recs[0]
	if released != 1 {
		t.Fatalf("stimulus released %d times, want once, at the first OK outcome", released)
	}
	if tr.pending() != 0 || r.err != "" || r.dups != 1 || !r.done.Equal(later) || r.detectToOutcome != 10*time.Millisecond {
		t.Fatalf("after OK + duplicate: %+v", r)
	}

	// An outcome the engine detected before the key's current stimulus was
	// sent belongs to the previous stimulus: never a completion.
	ev2 := &event{mote: 0, query: "photo1", eventKey: "s=mote-1"}
	tr.stimulate(ev2, time.Now())
	tr.observe(outcome("photo1", "s=mote-1", "camera-1", time.Hour, nil), time.Now())
	if tr.lateDups != 1 || tr.pending() != 1 {
		t.Fatalf("late duplicate completed the newer stimulus: lateDups %d pending %d", tr.lateDups, tr.pending())
	}
	// An event coming due on the still pending mote must not erase the
	// pending stimulus: it waits, and starts when that one completes.
	ev3 := &event{mote: 0, query: "photo2", eventKey: "s=mote-1"}
	tr.stimulate(ev3, time.Now())
	if excited != 2 || tr.deferredN != 1 || tr.pending() != 2 {
		t.Fatalf("deferred event: excited %d deferred %d pending %d", excited, tr.deferredN, tr.pending())
	}
	time.Sleep(2 * time.Millisecond)
	tr.observe(outcome("photo1", "s=mote-1", "camera-1", time.Millisecond, nil), time.Now())
	if excited != 3 || released != 1 || tr.pending() != 1 || tr.byMote[0].ev != ev3 {
		t.Fatalf("completion must start the deferred event: excited %d released %d pending %d", excited, released, tr.pending())
	}

	// A camera that does not cover the mote fails the output check; an
	// outcome for a never-stimulated key is stray.
	tr.stimulate(&event{mote: 1, query: "photo1", eventKey: "s=mote-2"}, time.Now())
	time.Sleep(2 * time.Millisecond)
	tr.observe(outcome("photo1", "s=mote-2", "camera-1", time.Millisecond, nil), time.Now())
	if last := tr.recs[len(tr.recs)-1]; last.err == "" {
		t.Error("photo by a non-covering camera passed the check")
	}
	tr.observe(outcome("photo9", "s=mote-9", "camera-1", 0, nil), time.Now())
	if len(tr.stray) != 1 {
		t.Errorf("stray = %v, want one entry", tr.stray)
	}
}

func testFacts(w *workload) *farmFacts {
	f := &farmFacts{devices: w.cameras + w.motes + w.phones, catalog: len(w.cqs(w))}
	for i := 0; i < w.motes; i++ {
		f.depth = append(f.depth, 1+i%3)
		f.coveredBy = append(f.coveredBy, []string{"camera-1"})
	}
	return f
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		facts := testFacts(w)
		a := w.generate(7, facts, 4*time.Second)
		b := w.generate(7, facts, 4*time.Second)
		c := w.generate(8, facts, 4*time.Second)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave scripts %s and %s", w.name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
		wantEvents := int(4*time.Second/w.eventPeriod) * w.burst
		wantStmts := int(4 * time.Second / w.stmtPer)
		if len(a.events) != wantEvents || len(a.stmts) != wantStmts {
			t.Errorf("%s: %d events and %d statements, want %d and %d (the rates are fixed)",
				w.name, len(a.events), len(a.stmts), wantEvents, wantStmts)
		}
		// No mote is stimulated twice within the time its stimulus and the
		// outcomes it causes can still be in flight.
		last := map[int]time.Duration{}
		for _, e := range a.events {
			if prev, ok := last[e.mote]; ok && e.due-prev < 150*time.Millisecond {
				t.Errorf("%s: mote %d stimulated again after %v", w.name, e.mote, e.due-prev)
			}
			last[e.mote] = e.due
		}
		for i, st := range a.stmts {
			if st.after >= i {
				t.Errorf("%s: statement %d waits for later statement %d", w.name, i, st.after)
			}
		}
	}
}

// TestSmoke drives every workload for under a second through the real
// assembled system and expects every output check to pass.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, 3, runOpts{warm: 200 * time.Millisecond, window: 700 * time.Millisecond, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.sum.events == 0 || res.sum.stmts == 0 {
			t.Errorf("%s: %d events, %d statements sent", w.name, res.sum.events, res.sum.stmts)
		}
		if raceEnabled {
			continue
		}
		if res.failed() != 0 {
			t.Errorf("%s: %d failed operations: %v", w.name, res.failed(), res.sum.problems)
		}
		for name, v := range res.endToEnd() {
			if math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
	}
}

// TestSmokeTraced runs the traced half and the isolated drives once, on
// the sharded workload, where every wrapper is in play.
func TestSmokeTraced(t *testing.T) {
	w := workloadByName("cluster4")
	res, err := runWorkload(w, 3, runOpts{warm: 200 * time.Millisecond, window: 800 * time.Millisecond, setups: 1, traced: true})
	if raceEnabled {
		return // device timeouts at 100x are too short for the slowed build
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.failed() != 0 {
		t.Errorf("%d failed operations: %v", res.failed(), res.sum.problems)
	}
	// BENCHMARK.json must name exactly the metrics the two kinds of run print.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
		if _, ok := res.perLayer[m.Name]; !ok {
			t.Errorf("BENCHMARK.json per_layer %s is not printed by a traced run", m.Name)
		}
		if perLayerUnit(m.Name) != m.Unit {
			t.Errorf("%s: unit %q declared, %q printed", m.Name, m.Unit, perLayerUnit(m.Name))
		}
	}
	for name := range res.perLayer {
		if !declared[name] {
			t.Errorf("traced run prints %s, which BENCHMARK.json does not declare", name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the run prints %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q declared, %q printed", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	for _, name := range []string{
		"core.exec_p50_ms", "cluster.exec_p50_ms", "cluster.shards_per_stmt", "frontdoor.self_p50_ms",
		"comm.wire_kb_per_op", "scanshare.tick_us_p50", "match.matchbatch_us_p50", "wal.append_sync_us_p50",
		"cluster.router_exec_us_p50", "wire.frame_roundtrip_us_p50", "sqlparse.parse_us_p50", "comm.scanbatch_ms_p50",
	} {
		if v, ok := res.perLayer[name]; !ok || math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v (present %v), want a positive measurement", name, v, ok)
		}
	}
}
