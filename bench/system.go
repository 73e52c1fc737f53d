package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aorta/internal/cluster"
	"aorta/internal/core"
	"aorta/internal/frontdoor"
	"aorta/internal/lab"
	"aorta/internal/netsim"
	"aorta/internal/profile"
	"aorta/internal/vclock"
	"aorta/internal/wal"
)

// probeInterval is cmd/aortad's liveness probe period.
const probeInterval = 5 * time.Second

// engineNode is one engine with its journal and front door: the whole
// single-engine daemon, or one shard of the cluster.
type engineNode struct {
	id       string
	eng      *core.Engine
	journal  *wal.Journal
	served   *servedDoor
	outcomes <-chan *core.Outcome
}

// servedDoor is a front door accepting on a simulated-network listener.
type servedDoor struct {
	lis  net.Listener
	door *frontdoor.Door
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

// serveDoor accepts clients for door on addr until close.
func serveDoor(network *netsim.Network, addr string, door *frontdoor.Door, exec frontdoor.Exec) (*servedDoor, error) {
	lis, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &servedDoor{lis: lis, door: door}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				door.Serve(context.Background(), conn, exec)
			}()
		}
	}()
	return s, nil
}

// close stops accepting, severs the sessions, waits for every Serve call
// to return and only then closes the door's pool, as Door.Close requires.
func (s *servedDoor) close() {
	s.lis.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.door.Close()
}

// system is the live system under test, assembled in one process the way
// cmd/aortad assembles it: simulated farm, journaled engine(s), front
// door(s) and, for a sharded workload, the router behind its own door.
type system struct {
	w     *workload
	farm  *lab.Lab
	nodes []*engineNode
	// router and routerDoor are nil for a single engine.
	router     *cluster.Router
	routerDoor *servedDoor
	// addr is where clients dial: the engine's door, or the router's.
	addr  string
	dir   string
	facts farmFacts
	tr    *tracer
}

// assemble builds the farm, the engine(s) and the doors, creates every
// continuous query through the door and waits until each has been
// evaluated once. dir receives the journals. tr may be nil.
func assemble(w *workload, seed int64, dir string, tr *tracer) (sys *system, err error) {
	// lab.New lays out and serves the farm. Its own engine stays unused:
	// the benchmark's engines take a harness-supplied dialer and a journal,
	// and a cluster needs several of them over the one farm.
	farm, err := lab.New(lab.Config{
		Cameras: w.cameras, Motes: w.motes, Phones: w.phones,
		ClockScale: clockScale, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	sys = &system{w: w, farm: farm, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()

	devices := farm.Engine.Layer().Devices()
	if w.cameras == 0 {
		// lab.New insists on cameras; a camera-less workload leaves them
		// served but registered nowhere.
		kept := devices[:0]
		for _, d := range devices {
			if d.Type != profile.DeviceCamera {
				kept = append(kept, d)
			}
		}
		devices = kept
	}
	sys.facts.devices = len(devices)
	for i, m := range farm.Motes {
		sys.facts.depth = append(sys.facts.depth, m.Depth())
		sys.facts.coveredBy = append(sys.facts.coveredBy, farm.CoveredBy(i))
		if w.photo && len(sys.facts.coveredBy[i]) == 0 {
			return nil, fmt.Errorf("mote-%d is covered by no camera: its photo events could never complete", i+1)
		}
	}

	// Devices are dealt to shards round-robin within each device type: 20
	// motes and 2 phones a shard on cluster4, everything on the one engine
	// otherwise.
	nshards := max(w.shards, 1)
	perType := map[string]int{}
	shardOf := map[string]int{}
	for _, d := range devices {
		shardOf[d.ID] = perType[d.Type] % nshards
		perType[d.Type]++
	}

	var dialer netsim.Dialer = farm.Network
	if tr != nil {
		dialer = tr.countingDialer(farm.Network)
	}
	ctx := context.Background()
	pins := map[string]string{}
	var infos []cluster.ShardInfo
	var entries []cluster.DeviceEntry
	for s := 0; s < nshards; s++ {
		n := &engineNode{id: fmt.Sprintf("shard-%d", s+1)}
		sys.nodes = append(sys.nodes, n)
		jdir := filepath.Join(dir, n.id)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, err
		}
		if n.journal, err = wal.Open(jdir, wal.Options{}); err != nil {
			return nil, err
		}
		n.eng, err = core.New(core.Config{
			Clock: farm.Clock, Dialer: dialer,
			LivenessProbeInterval: probeInterval, Journal: n.journal,
		})
		if err != nil {
			return nil, err
		}
		for _, d := range devices {
			if shardOf[d.ID] != s {
				continue
			}
			mount, _ := farm.Engine.MountOf(d.ID)
			if err := n.eng.RegisterDevice(*d, mount); err != nil {
				return nil, err
			}
			pins[d.ID] = n.id
			entries = append(entries, cluster.DeviceEntry{ID: d.ID, Type: d.Type})
		}
		if _, err := n.eng.Recover(ctx); err != nil {
			return nil, err
		}
		// Subscribed before Start so no outcome can precede the harness.
		n.outcomes = n.eng.SubscribeOutcomes(outcomeBuffer)
		if err := n.eng.Start(ctx); err != nil {
			return nil, err
		}
		door := frontdoor.New(frontdoor.Config{Clock: vclock.Real{}})
		exec := cluster.ShardExec(n.eng, door)
		if tr != nil {
			exec = tr.wrapExec(spanCoreExec, n.id, exec)
		}
		addr := "fd-" + n.id
		if n.served, err = serveDoor(farm.Network, addr, door, exec); err != nil {
			door.Close()
			return nil, err
		}
		infos = append(infos, cluster.ShardInfo{ID: n.id, Addr: addr})
		sys.addr = addr
	}

	if w.shards > 0 {
		sys.router, err = cluster.NewRouter(cluster.RouterConfig{Shards: infos, Pins: pins, Dialer: dialer})
		if err != nil {
			return nil, err
		}
		sys.router.SetDevices(entries)
		door := frontdoor.New(frontdoor.Config{Clock: vclock.Real{}})
		exec := frontdoor.Exec(sys.router.Exec)
		if tr != nil {
			exec = tr.wrapExec(spanClusterExec, "router", exec)
		}
		sys.addr = "fd-router"
		if sys.routerDoor, err = serveDoor(farm.Network, sys.addr, door, exec); err != nil {
			door.Close()
			return nil, err
		}
	}

	if err := sys.createQueries(ctx); err != nil {
		return nil, err
	}
	return sys, nil
}

// outcomeBuffer absorbs a whole window's outcomes even if the collector
// stalls; core.outcomes_dropped reports if it ever did not.
const outcomeBuffer = 1 << 14

// createQueries issues the workload's CREATE AQ statements through the
// client door, then polls SHOW QUERIES through it until every query has
// completed an evaluation, and audits the catalog.
func (sys *system) createQueries(ctx context.Context) error {
	cqs := sys.w.cqs(sys.w)
	sys.facts.catalog = len(cqs)
	c, err := dialClient(ctx, sys.farm.Network, sys.addr)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.runAll(cqs); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		f, err := c.roundTrip("SHOW QUERIES")
		if err != nil {
			return err
		}
		if len(f.Queries) != len(cqs) {
			return fmt.Errorf("catalog holds %d queries after set-up, want %d", len(f.Queries), len(cqs))
		}
		pending := 0
		for _, raw := range f.Queries {
			if !evaluatedOnce(raw) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d queries never completed an evaluation", pending, len(cqs))
		}
		time.Sleep(epochWall / 4)
	}
	if sys.w.shards > 0 {
		// Placement audit: id-pruning must put each query on its mote's
		// owner shard and nowhere else.
		want := len(cqs) / sys.w.shards
		for _, n := range sys.nodes {
			res, err := n.eng.Exec(ctx, "SHOW QUERIES")
			if err != nil {
				return err
			}
			if len(res.Queries) != want {
				return fmt.Errorf("%s holds %d queries, want %d", n.id, len(res.Queries), want)
			}
		}
	}
	return nil
}

// stopEngines stops evaluation and the doors but leaves the farm serving,
// so the isolated drives can use it with the engines idle.
func (sys *system) stopEngines() {
	if sys.routerDoor != nil {
		sys.routerDoor.close()
		sys.routerDoor = nil
	}
	if sys.router != nil {
		sys.router.Close()
		sys.router = nil
	}
	for _, n := range sys.nodes {
		if n.served != nil {
			n.served.close()
			n.served = nil
		}
		if n.eng != nil {
			n.eng.Stop()
			n.eng = nil
		}
		if n.journal != nil {
			n.journal.Close()
			n.journal = nil
		}
	}
}

// close tears the whole system down and removes its journals.
func (sys *system) close() {
	sys.stopEngines()
	sys.farm.Close()
	os.RemoveAll(sys.dir)
}
