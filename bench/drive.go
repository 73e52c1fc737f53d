package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aorta/internal/core"
)

// eventRec follows one stimulus from its due time to its first OK outcome.
type eventRec struct {
	ev    *event
	dueAt time.Time
	sent  time.Time
	done  time.Time // zero while pending
	// detectToOutcome is the engine's own event-to-completion latency
	// (Outcome.Latency) in wall time; the rest of the event's latency
	// passed between the stimulus and the scan that saw it.
	detectToOutcome time.Duration
	dups            int
	err             string
}

// tracker pairs outcomes with the stimuli predicted to cause them.
type tracker struct {
	// excite delivers a registered stimulus to its mote and release ends
	// it. coveredBy, set on photo workloads only, lists the cameras allowed
	// to serve mote i.
	excite    func(ev *event)
	release   func(mote int)
	coveredBy [][]string

	mu     sync.Mutex
	byKey  map[string]*eventRec // latest stimulus per query|eventKey
	byMote []*eventRec          // latest stimulus per mote
	recs   []*eventRec
	// deferred holds, per mote, the events that came due while the mote was
	// still showing an earlier one. A mote is never re-stimulated while its
	// event is pending — that would erase the pending event — so a deferred
	// event starts when the earlier one completes, and its latency, timed
	// from its due time as always, carries the wait.
	deferred  [][]*eventRec
	deferredN int
	// lateDups counts outcomes that an earlier stimulus of the same key
	// caused after a newer one replaced it; stray counts outcomes naming
	// no stimulated (query, event) at all.
	lateDups int
	stray    []string
}

func newTracker(motes int, coveredBy [][]string, excite func(ev *event), release func(mote int)) *tracker {
	return &tracker{excite: excite, release: release, coveredBy: coveredBy,
		byKey: map[string]*eventRec{}, byMote: make([]*eventRec, motes), deferred: make([][]*eventRec, motes)}
}

// stimulate registers ev, due at dueAt, and excites its mote — at once if
// the mote is free (or its previous event has timed out), else when the
// previous event completes.
func (t *tracker) stimulate(ev *event, dueAt time.Time) {
	rec := &eventRec{ev: ev, dueAt: dueAt}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, rec)
	if prev := t.byMote[ev.mote]; prev != nil && prev.done.IsZero() && time.Since(prev.dueAt) < opTimeout {
		t.deferred[ev.mote] = append(t.deferred[ev.mote], rec)
		t.deferredN++
		return
	}
	t.startLocked(rec)
}

// startLocked excites rec's mote now. Caller holds t.mu.
func (t *tracker) startLocked(rec *eventRec) {
	rec.sent = time.Now()
	t.byMote[rec.ev.mote] = rec
	t.byKey[rec.ev.query+"|"+rec.ev.eventKey] = rec
	t.excite(rec.ev)
}

// observe pairs one outcome, delivered at time at, with its stimulus.
func (t *tracker) observe(o *core.Outcome, at time.Time) {
	wallLatency := time.Duration(float64(o.Latency) / clockScale)
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.byKey[o.Query+"|"+o.EventKey]
	if rec == nil {
		t.stray = append(t.stray, fmt.Sprintf("outcome for %s %s matches no stimulus", o.Query, o.EventKey))
		return
	}
	// The engine detected this event before the stimulus was even sent:
	// it is the tail of the key's previous stimulus, seen by a second scan.
	if at.Add(-wallLatency).Before(rec.sent) {
		t.lateDups++
		return
	}
	if !o.OK() {
		if rec.err == "" && rec.done.IsZero() {
			rec.err = fmt.Sprintf("%s %s failed on %s: %v (%v)", o.Query, o.EventKey, o.DeviceID, o.Err, o.Failure)
		}
		return
	}
	if !rec.done.IsZero() {
		rec.dups++
		return
	}
	rec.done = at
	rec.err = "" // an earlier failed attempt is superseded by the OK outcome
	rec.detectToOutcome = wallLatency
	if m := rec.ev.mote; t.byMote[m] == rec {
		if q := t.deferred[m]; len(q) > 0 {
			t.deferred[m] = q[1:]
			t.startLocked(q[0])
		} else {
			t.release(m)
		}
	}
	if t.coveredBy != nil && !slices.Contains(t.coveredBy[rec.ev.mote], o.DeviceID) {
		rec.err = fmt.Sprintf("%s %s was taken by %s, which does not cover the mote", o.Query, o.EventKey, o.DeviceID)
	}
}

// stmtRec follows one statement from its due time to its ok:true frame.
type stmtRec struct {
	st    *stmt
	dueAt time.Time
	done  time.Time
	err   string
	code  string // the frame's error code, if any
	// dropsAcked is the DROP count acknowledged when this statement was
	// sent: a SHOW QUERIES may see every pair opened since.
	dropsAcked int64
}

// stmtConn drives one client connection: a sender on the schedule and a
// reader pairing frames by tag.
type stmtConn struct {
	d    *driver
	c    *client
	mine []int // script indexes, in due order
	// late is how late the sender woke for each statement; bytesAt is the
	// client's read count at each mark of the run.
	late    []time.Duration
	bytesAt []int64

	mu sync.Mutex
	// acked marks statements whose ok:true frame was read; parked maps a
	// CREATE's index to its DROP once the DROP came due before the ack.
	acked  map[int]bool
	parked map[int]int
	wmu    sync.Mutex
}

// driver offers one script to one system and records what came back.
type driver struct {
	sys   *system
	sc    *script
	start time.Time

	tracker *tracker
	stmts   []stmtRec
	conns   []*stmtConn
	// outstanding counts statements sent but not answered.
	outstanding atomic.Int64
	createsSent atomic.Int64
	dropsAcked  atomic.Int64
	eventLate   []time.Duration
}

func (c *stmtConn) send(i int) {
	r := &c.d.stmts[i]
	if r.st.check == checkQueries {
		r.dropsAcked = c.d.dropsAcked.Load()
	}
	if r.st.after < 0 && r.st.check == checkOK {
		c.d.createsSent.Add(1)
	}
	c.d.outstanding.Add(1)
	c.wmu.Lock()
	err := c.c.send(i, r.st.text)
	c.wmu.Unlock()
	if err != nil {
		r.err = "send: " + err.Error()
		c.d.outstanding.Add(-1)
	}
}

func (c *stmtConn) runSender() {
	c.late = make([]time.Duration, 0, len(c.mine))
	for _, i := range c.mine {
		r := &c.d.stmts[i]
		sleepUntil(r.dueAt)
		c.late = append(c.late, time.Since(r.dueAt))
		if a := r.st.after; a >= 0 {
			c.mu.Lock()
			ready := c.acked[a]
			if !ready {
				c.parked[a] = i
			}
			c.mu.Unlock()
			if !ready {
				continue
			}
		}
		c.send(i)
	}
}

func (c *stmtConn) runReader() {
	for {
		f, err := c.c.recv()
		if err != nil {
			return // the driver closes the connection when the run is over
		}
		at := time.Now()
		i, err := strconv.Atoi(f.ID)
		if err != nil || i < 0 || i >= len(c.d.stmts) {
			continue
		}
		r := &c.d.stmts[i]
		r.done = at
		r.code = f.Code
		r.err = c.d.checkFrame(r, f)
		c.d.outstanding.Add(-1)
		if r.st.after >= 0 {
			c.d.dropsAcked.Add(1)
		}
		c.mu.Lock()
		c.acked[i] = true
		drop, parked := c.parked[i]
		delete(c.parked, i)
		c.mu.Unlock()
		if parked && r.err == "" {
			c.send(drop)
		}
	}
}

// checkFrame verifies one response frame against the statement's static
// expectation; the empty string means it passed.
func (d *driver) checkFrame(r *stmtRec, f *frame) string {
	if !f.OK {
		return fmt.Sprintf("%.50s: not ok: %s %s", r.st.text, f.Code, f.Error)
	}
	switch r.st.check {
	case checkRows:
		if len(f.Rows) != r.st.want {
			return fmt.Sprintf("%.50s: %d rows, want %d", r.st.text, len(f.Rows), r.st.want)
		}
	case checkQueries:
		// Every pair whose CREATE was sent and whose DROP was not yet
		// acknowledged when this statement went out may be in the catalog.
		open := d.createsSent.Load() - r.dropsAcked
		if n := int64(len(f.Queries)); n < int64(r.st.want) || n > int64(r.st.want)+open {
			return fmt.Sprintf("SHOW QUERIES: %d queries, want %d (+%d open pairs)", n, r.st.want, open)
		}
	case checkNames:
		if len(f.Names) != r.st.want {
			return fmt.Sprintf("%.50s: %d names, want %d", r.st.text, len(f.Names), r.st.want)
		}
	case checkMetrics:
		if len(f.Metrics) == 0 {
			return r.st.text + ": no metrics section"
		}
	}
	return ""
}

// spinMargin is how early a generator wakes to poll for its due time. On
// the box the benchmark was sized on, an idle time.Sleep overshoots by
// 0.6 ms at the median and 1.2 ms at p99 — more than a whole statement
// takes on the cheap paths — so the last stretch yields and polls instead.
const spinMargin = 1500 * time.Microsecond

// sleepUntil returns at due, or as soon after as the scheduler allows.
func sleepUntil(due time.Time) {
	time.Sleep(time.Until(due) - spinMargin)
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runEvents is the event generator: one goroutine on the fixed schedule.
func (d *driver) runEvents() {
	d.eventLate = make([]time.Duration, 0, len(d.sc.events))
	for i := range d.sc.events {
		ev := &d.sc.events[i]
		dueAt := d.start.Add(ev.due)
		sleepUntil(dueAt)
		d.eventLate = append(d.eventLate, time.Since(dueAt))
		d.tracker.stimulate(ev, dueAt)
	}
}

// edge is what the harness reads at each end of the measured window.
type edge struct {
	mem       runtime.MemStats
	cpu       time.Duration
	rssPeakMB float64
	layers    layerSnap
}

func takeEdge(sys *system) edge {
	var e edge
	e.layers = snapLayers(sys)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		e.rssPeakMB = float64(ru.Maxrss) / 1024
	}
	runtime.ReadMemStats(&e.mem)
	return e
}

// clientConns is min(2, nproc).
func clientConns() int { return min(2, runtime.NumCPU()) }

// drive offers the script to the system and reads an edge at each mark
// (offsets from the start: the end of warm-up, then each window's end),
// calling atMark just after; stragglers then get up to opTimeout.
func drive(ctx context.Context, sys *system, sc *script, marks []time.Duration, atMark func(i int)) (*driver, []edge, error) {
	var coveredBy [][]string
	if sys.w.photo {
		coveredBy = sys.facts.coveredBy
	}
	d := &driver{sys: sys, sc: sc, stmts: make([]stmtRec, len(sc.stmts))}
	d.tracker = newTracker(sys.w.motes, coveredBy,
		func(ev *event) { sys.farm.Motes[ev.mote].Stimulate("x", ev.mag, stimVirtual) },
		func(mote int) { sys.farm.Motes[mote].Stimulate("x", 0, 0) })
	for k := 0; k < clientConns(); k++ {
		c, err := dialClient(ctx, sys.farm.Network, sys.addr)
		if err != nil {
			return nil, nil, err
		}
		d.conns = append(d.conns, &stmtConn{d: d, c: c, acked: map[int]bool{}, parked: map[int]int{}})
	}
	// A DROP rides its CREATE's connection; everything else alternates.
	for i := range sc.stmts {
		k := i % len(d.conns)
		if a := sc.stmts[i].after; a >= 0 {
			k = a % len(d.conns)
		}
		d.conns[k].mine = append(d.conns[k].mine, i)
	}

	stop := make(chan struct{})
	var collectors sync.WaitGroup
	for _, n := range sys.nodes {
		collectors.Add(1)
		go func(ch <-chan *core.Outcome) {
			defer collectors.Done()
			for {
				select {
				case o := <-ch:
					d.tracker.observe(o, time.Now())
				case <-stop:
					return
				}
			}
		}(n.outcomes)
	}

	d.start = time.Now().Add(10 * time.Millisecond)
	for i := range d.stmts {
		d.stmts[i].st = &sc.stmts[i]
		d.stmts[i].dueAt = d.start.Add(sc.stmts[i].due)
	}
	var senders, readers sync.WaitGroup
	for _, c := range d.conns {
		senders.Add(1)
		readers.Add(1)
		go func(c *stmtConn) { defer senders.Done(); c.runSender() }(c)
		go func(c *stmtConn) { defer readers.Done(); c.runReader() }(c)
	}
	senders.Add(1)
	go func() { defer senders.Done(); d.runEvents() }()

	edges := make([]edge, len(marks))
	for i, m := range marks {
		time.Sleep(time.Until(d.start.Add(m)))
		edges[i] = takeEdge(sys)
		for _, c := range d.conns {
			c.bytesAt = append(c.bytesAt, c.c.bytesRead.Load())
		}
		atMark(i)
	}
	senders.Wait()

	// Stragglers get the operation timeout, no more.
	deadline := d.start.Add(marks[len(marks)-1] + opTimeout)
	for time.Now().Before(deadline) && (d.outstanding.Load() > 0 || d.tracker.pending() > 0) {
		time.Sleep(time.Millisecond)
	}
	for _, c := range d.conns {
		c.c.close()
	}
	readers.Wait()
	close(stop)
	collectors.Wait()
	return d, edges, nil
}

// pending counts stimuli still waiting for their first OK outcome.
func (t *tracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.recs {
		if r.done.IsZero() {
			n++
		}
	}
	return n
}
