package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"aorta/internal/cluster"
	"aorta/internal/comm"
	"aorta/internal/devsync"
	"aorta/internal/frontdoor"
	"aorta/internal/match"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/scanshare"
	"aorta/internal/sched"
	"aorta/internal/sqlparse"
	"aorta/internal/vclock"
	"aorta/internal/wal"
	"aorta/internal/wire"
	uniform "aorta/internal/workload"
)

// timeOp calls fn n times on an otherwise idle process and returns the
// median time of one call in microseconds and the mallocs per call.
func timeOp(n int, fn func() error) (p50us, allocs float64, err error) {
	var before, after runtime.MemStats
	took := make([]float64, 0, n)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		took = append(took, us(time.Since(start)))
	}
	runtime.ReadMemStats(&after)
	return median(took), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// isolatedDrives runs each layer's public functions alone, with inputs
// taken from the workload's own farm, query set and statement script, and
// adds the (I) per-layer metrics to m. The engines must be stopped; the
// farm must still be serving.
func isolatedDrives(ctx context.Context, sys *system, sc *script, m map[string]float64) error {
	drives := []func() error{
		func() error { return driveFrontdoor(ctx, m) },
		func() error { return driveParse(sc, m) },
		func() error { return driveRouting(ctx, sys, m) },
		func() error { return driveComm(ctx, sys, m) },
		func() error { return driveSched(sys.w, m) },
		func() error { return driveWAL(sys, m) },
		func() error { return driveRouter(ctx, m) },
		func() error { return driveWire(m) },
	}
	for _, d := range drives {
		if err := d(); err != nil {
			return err
		}
	}
	return nil
}

// driveFrontdoor prices the door alone: a no-op Exec, one connection, a
// window of 8 tagged statements in flight.
func driveFrontdoor(ctx context.Context, m map[string]float64) error {
	const n, window = 4000, 8
	door := frontdoor.New(frontdoor.Config{Clock: vclock.Real{}})
	defer door.Close()
	cli, srv := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		door.Serve(ctx, srv, func(_ context.Context, id, _ string) any {
			return &frontdoor.ErrorResponse{ID: id, OK: true}
		})
	}()
	defer func() { cli.Close(); <-served }()

	r := bufio.NewReader(cli)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for sent, done := 0, 0; done < n; {
		for ; sent < n && sent-done < window; sent++ {
			if _, err := fmt.Fprintf(cli, "#%d SHOW QUERIES\n", sent); err != nil {
				return err
			}
		}
		if _, err := r.ReadSlice('\n'); err != nil {
			return err
		}
		done++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m["frontdoor.noop_us_per_stmt"] = us(elapsed) / n
	m["frontdoor.noop_allocs_per_stmt"] = float64(after.Mallocs-before.Mallocs) / n
	return nil
}

// driveParse parses the script's SQL statements one by one.
func driveParse(sc *script, m map[string]float64) error {
	var texts []string
	for _, st := range sc.stmts {
		if !strings.HasPrefix(st.text, `\`) && len(texts) < 1000 {
			texts = append(texts, st.text)
		}
	}
	if len(texts) == 0 {
		return nil // the workload sends only backslash commands
	}
	i := 0
	p50, allocs, err := timeOp(len(texts), func() error {
		_, err := sqlparse.Parse(texts[i])
		i++
		return err
	})
	m["sqlparse.parse_us_p50"], m["sqlparse.parse_allocs"] = p50, allocs
	return err
}

// tableSpecs derives, for each continuous query of the workload, the
// table needs it subscribes to the scan fabric with: per FROM table the
// columns it references and its indexable conjuncts.
func tableSpecs(w *workload) ([][]scanshare.TableSpec, error) {
	var out [][]scanshare.TableSpec
	for _, text := range w.cqs(w) {
		st, err := sqlparse.Parse(text)
		if err != nil {
			return nil, err
		}
		sel := st.(*sqlparse.CreateAQ).Select
		var specs []scanshare.TableSpec
		for _, tr := range sel.From {
			alias := tr.Name()
			owns := func(ref *sqlparse.ColumnRef) bool { return ref.Qualifier == alias }
			attrs := map[string]bool{"id": true}
			var walk func(e sqlparse.Expr)
			walk = func(e sqlparse.Expr) {
				switch x := e.(type) {
				case *sqlparse.ColumnRef:
					if owns(x) {
						attrs[x.Column] = true
					}
				case *sqlparse.Call:
					for _, a := range x.Args {
						walk(a)
					}
				case *sqlparse.Compare:
					walk(x.Left)
					walk(x.Right)
				case *sqlparse.Logic:
					walk(x.Left)
					walk(x.Right)
				case *sqlparse.Not:
					walk(x.Inner)
				}
			}
			for _, it := range sel.Items {
				walk(it)
			}
			if sel.Where != nil {
				walk(sel.Where)
			}
			spec := scanshare.TableSpec{Alias: alias, DeviceType: tr.Table, Preds: match.Extract(sel.Where, owns)}
			for a := range attrs {
				spec.Attrs = append(spec.Attrs, a)
			}
			specs = append(specs, spec)
		}
		out = append(out, specs)
	}
	return out, nil
}

// sensorBatch is one epoch's sensor scan as the workload would see it:
// every mote at rest except one in eight, excited inside the workload's
// stimulus range.
func sensorBatch(sys *system, attrs []string) *comm.Batch {
	rng := rand.New(rand.NewSource(1))
	tuples := make([]comm.Tuple, len(sys.farm.Motes))
	for i, mt := range sys.farm.Motes {
		accel := 0.0
		if i%8 == 0 {
			accel = sys.w.magnitude(rng, i%sys.w.bands)
		}
		tuples[i] = comm.Tuple{
			"id": mt.ID(), "accel_x": accel, "temp": 22.0, "loc": mt.Location(), "depth": float64(mt.Depth()),
		}
	}
	return comm.BatchFromTuples(attrs, tuples)
}

// driveRouting prices the route step twice: MatchBatch alone over the
// workload's sensor predicates, and a whole fabric tick — stub scan, the
// workload's subscriptions, fan-out — from scan to last delivery.
func driveRouting(ctx context.Context, sys *system, m map[string]float64) error {
	cqs, err := tableSpecs(sys.w)
	if err != nil {
		return err
	}

	idx := match.NewIndex()
	for q, specs := range cqs {
		for _, s := range specs {
			if s.DeviceType == profile.DeviceSensor {
				idx.Insert(match.Sub{ID: q, Tag: s.Alias}, s.Preds)
			}
		}
	}
	batch := sensorBatch(sys, []string{"id", "accel_x", "temp"})
	p50, allocs, err := timeOp(300, func() error { idx.MatchBatch(batch); return nil })
	if err != nil {
		return err
	}
	m["match.matchbatch_us_p50"], m["match.matchbatch_allocs"] = p50, allocs

	// The fabric on a real clock with a short epoch: the stub scan stamps
	// the start of each tick, the last delivery its end.
	const ticks = 40
	var mu sync.Mutex
	var scanAt time.Time
	fabric := scanshare.New(vclock.Real{}, func(_ context.Context, deviceType string, attrs []string) (*comm.Batch, error) {
		mu.Lock()
		if scanAt.IsZero() {
			scanAt = time.Now()
		}
		mu.Unlock()
		if deviceType == profile.DeviceSensor {
			return sensorBatch(sys, attrs), nil
		}
		return comm.BatchFromTuples(attrs, nil), nil
	})
	var subs []*scanshare.Subscription
	for _, specs := range cqs {
		subs = append(subs, fabric.Subscribe(5*time.Millisecond, specs))
	}
	fctx, cancel := context.WithCancel(ctx)
	fabric.Start(fctx)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	took := make([]float64, 0, ticks)
	for t := 0; t < ticks; t++ {
		for _, s := range subs {
			b := <-s.C
			b.Release()
		}
		end := time.Now()
		mu.Lock()
		took = append(took, us(end.Sub(scanAt)))
		scanAt = time.Time{}
		mu.Unlock()
	}
	runtime.ReadMemStats(&after)
	cancel()
	fabric.Stop()
	for _, s := range subs {
		s.Close()
	}
	m["scanshare.tick_us_p50"] = median(took)
	m["scanshare.tick_allocs"] = float64(after.Mallocs-before.Mallocs) / ticks
	return nil
}

// driveComm runs the transport against the live farm with the engines
// stopped: a one-shot sensor scan as an ad-hoc SELECT issues it, a probe,
// and the lock and candidate-probe steps of an action dispatch.
func driveComm(ctx context.Context, sys *system, m map[string]float64) error {
	reg, err := profile.DefaultRegistry()
	if err != nil {
		return err
	}
	layer := comm.New(sys.farm.Network, sys.farm.Clock, reg)
	defer layer.Close()
	var actuators []string
	for _, d := range sys.farm.Engine.Layer().Devices() {
		if err := layer.Register(*d); err != nil {
			return err
		}
		// The devices the workload's actions run on: cameras for photo(),
		// phones for notify().
		if sys.w.photo == (d.Type == profile.DeviceCamera) && d.Type != profile.DeviceSensor {
			actuators = append(actuators, d.ID)
		}
	}
	p50, allocs, err := timeOp(30, func() error {
		b, _, err := layer.ScanBatch(ctx, profile.DeviceSensor, []string{"id", "accel_x", "temp"})
		if err != nil {
			return err
		}
		if b.Len() != sys.w.motes {
			err = fmt.Errorf("isolated scan returned %d of %d motes", b.Len(), sys.w.motes)
		}
		b.Release()
		return err
	})
	if err != nil {
		return err
	}
	m["comm.scanbatch_ms_p50"], m["comm.scanbatch_allocs"] = p50/1000, allocs
	if p50, _, err = timeOp(300, func() error { _, err := layer.Probe(ctx, "mote-1"); return err }); err != nil {
		return err
	}
	m["comm.probe_us_p50"] = p50

	locks := devsync.NewLockManager(sys.farm.Clock)
	if p50, _, err = timeOp(2000, func() error {
		if err := locks.Lock(ctx, actuators[0], "bench"); err != nil {
			return err
		}
		return locks.Unlock(actuators[0], "bench")
	}); err != nil {
		return err
	}
	m["devsync.lock_cycle_us_p50"] = p50
	prober := devsync.NewProber(layer)
	if p50, _, err = timeOp(100, func() error {
		if r := prober.ProbeCandidates(ctx, actuators); len(r.Excluded) > 0 {
			return fmt.Errorf("probe excluded %v", r.Excluded)
		}
		return nil
	}); err != nil {
		return err
	}
	m["devsync.probe_candidates_us_p50"] = p50
	return nil
}

// driveSched runs the engine's default scheduler on a uniform problem the
// size of the workload's burst. makespan_vs is virtual seconds and exact.
func driveSched(w *workload, m map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	p := uniform.Uniform(w.burst, max(w.cameras, 1), rng)
	var res *sched.Result
	p50, _, err := timeOp(300, func() (err error) {
		res, err = sched.Run(sched.SRFAE{}, p, rng, sched.DefaultAccounting())
		return err
	})
	if err != nil {
		return err
	}
	m["sched.schedule_us_p50"] = p50
	m["sched.cost_evals"] = float64(res.Evals)
	m["sched.makespan_vs"] = res.Makespan.Seconds()
	return nil
}

// driveWAL appends intent-sized records to a journal of its own under the
// default options: one fsync each.
func driveWAL(sys *system, m map[string]float64) error {
	dir := filepath.Join(sys.dir, "isolated-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	rec, err := wal.NewRecord(wal.KindIntent, wal.IntentRecord{
		DedupKey: "photo1|0123456789abcdef|1700000000000000000", RequestID: 1, QueryID: 1,
		Query: "photo1", Action: "photo", EventKey: "s=mote-1", CreatedNS: 1, DeadlineNS: 2,
		Candidates: make([]wal.CandidateRecord, max(sys.w.cameras, 1)),
	})
	if err != nil {
		return err
	}
	p50, _, err := timeOp(200, func() error { return j.Append(rec) })
	m["wal.append_sync_us_p50"] = p50
	return err
}

// driveRouter prices the router's own fan-out, merge and re-encode: four
// stub shards that answer every statement with a canned ok frame.
func driveRouter(ctx context.Context, m map[string]float64) error {
	network := netsim.NewNetwork(vclock.Real{}, 1)
	var infos []cluster.ShardInfo
	for i := 1; i <= 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		lis, err := network.Listen(id)
		if err != nil {
			return err
		}
		defer lis.Close()
		go serveCanned(lis)
		infos = append(infos, cluster.ShardInfo{ID: id, Addr: id})
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: infos, Dialer: network})
	if err != nil {
		return err
	}
	defer rt.Close()
	exec := func() error {
		if resp, ok := rt.Exec(ctx, "", "SHOW DEVICES").(*cluster.Response); !ok || !resp.OK {
			return fmt.Errorf("stub fan-out failed: %+v", resp)
		}
		return nil
	}
	if err := exec(); err != nil { // dials the shard connections
		return err
	}
	p50, allocs, err := timeOp(1000, exec)
	m["cluster.router_exec_us_p50"], m["cluster.router_exec_allocs"] = p50, allocs
	return err
}

// serveCanned answers each tagged line on each connection with an ok frame
// echoing the tag.
func serveCanned(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			enc := json.NewEncoder(conn)
			for sc.Scan() {
				id, _, _ := frontdoor.SplitTag(strings.TrimSpace(sc.Text()))
				if enc.Encode(map[string]any{"ok": true, "id": id}) != nil {
					return
				}
			}
		}()
	}
}

// driveWire encodes and decodes one read-ack frame, the substrate under
// every comm number.
func driveWire(m map[string]float64) error {
	msg := &wire.Message{Type: wire.TypeReadAck, Seq: 7, Device: "mote-1",
		Payload: wire.MustPayload(wire.ReadAck{Attr: "accel_x", Value: json.RawMessage("512.25")})}
	var buf bytes.Buffer
	p50, allocs, err := timeOp(2000, func() error {
		buf.Reset()
		if err := wire.WriteFrame(&buf, msg); err != nil {
			return err
		}
		_, err := wire.ReadFrame(&buf)
		return err
	})
	m["wire.frame_roundtrip_us_p50"], m["wire.frame_allocs"] = p50, allocs
	return err
}
