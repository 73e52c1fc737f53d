package main

import (
	"time"

	"aorta/internal/liveness"
)

// layerSnap is the counters of every layer's exported snapshot the (S)
// metrics need, summed over the system's engines and doors and read at one
// edge of a window.
type layerSnap struct {
	doorStmts, doorShed                               int64
	requests, retries, outcomesDropped                int64
	reads, probes, execs, dials, commFailures         int64
	poolHits, poolMisses                              int64
	epochs, deviceScans, tuplesFanned, scansCoalesced int64
	batchesDelivered, batchesDropped                  int64
	indexProbes, indexHits, residualHits              int64
	walAppends, walSyncs, walErrors                   int64
	// notUp is a gauge: devices the failure detector does not hold Up.
	notUp int
}

func snapLayers(sys *system) layerSnap {
	var s layerSnap
	for _, n := range sys.nodes {
		cm := n.eng.Metrics()
		s.requests += cm.Requests
		s.retries += cm.Retries
		s.outcomesDropped += cm.OutcomesDropped

		tm := n.eng.CommMetrics()
		s.reads += tm.Reads
		s.probes += tm.Probes
		s.execs += tm.Execs
		s.dials += tm.Dials
		s.commFailures += tm.ReadFailures + tm.ProbeFailures + tm.ExecFailures + tm.DialFailures
		s.poolHits += tm.PoolHits
		s.poolMisses += tm.PoolMisses

		sm := n.eng.ScanMetrics()
		s.epochs += sm.Epochs
		s.deviceScans += sm.DeviceScans
		s.tuplesFanned += sm.TuplesFanned
		s.scansCoalesced += sm.ScansCoalesced
		s.batchesDelivered += sm.BatchesDelivered
		s.batchesDropped += sm.BatchesDropped
		s.indexProbes += sm.IndexProbes
		s.indexHits += sm.IndexHits
		s.residualHits += sm.ResidualHits

		if ws, ok := n.eng.JournalStats(); ok {
			s.walAppends += ws.Appends
			s.walSyncs += ws.Syncs
			s.walErrors += ws.AppendErrors + ws.SyncErrors
		}
		for _, h := range n.eng.LivenessSnapshot() {
			if h.State != liveness.Up {
				s.notUp++
			}
		}
	}
	doors := make([]*servedDoor, 0, len(sys.nodes)+1)
	for _, n := range sys.nodes {
		doors = append(doors, n.served)
	}
	if sys.routerDoor != nil {
		doors = append(doors, sys.routerDoor)
	}
	for _, d := range doors {
		dm := d.door.Metrics()
		s.doorStmts += dm.Tagged + dm.Untagged
		s.doorShed += dm.Shed
	}
	return s
}

// layerDeltas turns the snapshots at a window's two edges into the (S)
// per-layer metrics. ops is the operations sent in the window.
func layerDeltas(m map[string]float64, a, b layerSnap, window time.Duration, nodes int, ops float64) {
	d := func(after, before int64) float64 { return float64(after - before) }
	epochs := d(b.epochs, a.epochs)
	m["frontdoor.stmts"] = d(b.doorStmts, a.doorStmts)
	m["frontdoor.shed"] = d(b.doorShed, a.doorShed)
	m["core.requests"] = d(b.requests, a.requests)
	m["core.retries"] = d(b.retries, a.retries)
	m["core.outcomes_dropped"] = d(b.outcomesDropped, a.outcomesDropped)
	m["core.evals_per_epoch"] = ratio(d(b.batchesDelivered, a.batchesDelivered), epochs)
	m["scanshare.epochs"] = epochs
	m["scanshare.epoch_lag_share"] = 1 - ratio(epochs, float64(nodes)*float64(window)/float64(epochWall))
	m["scanshare.device_scans_per_epoch"] = ratio(d(b.deviceScans, a.deviceScans), epochs)
	m["scanshare.tuples_fanned_per_epoch"] = ratio(d(b.tuplesFanned, a.tuplesFanned), epochs)
	m["scanshare.scans_coalesced_per_epoch"] = ratio(d(b.scansCoalesced, a.scansCoalesced), epochs)
	m["scanshare.batches_dropped"] = d(b.batchesDropped, a.batchesDropped)
	hits, residual := d(b.indexHits, a.indexHits), d(b.residualHits, a.residualHits)
	m["match.hits_per_probe"] = ratio(hits, d(b.indexProbes, a.indexProbes))
	m["match.residual_share"] = ratio(residual, hits+residual)
	m["comm.reads"] = d(b.reads, a.reads)
	m["comm.probes"] = d(b.probes, a.probes)
	m["comm.execs"] = d(b.execs, a.execs)
	m["comm.dials"] = d(b.dials, a.dials)
	poolHits, poolMisses := d(b.poolHits, a.poolHits), d(b.poolMisses, a.poolMisses)
	m["comm.pool_hit_share"] = ratio(poolHits, poolHits+poolMisses)
	m["comm.failures"] = d(b.commFailures, a.commFailures)
	m["wal.appends_per_op"] = ratio(d(b.walAppends, a.walAppends), ops)
	m["wal.syncs_per_op"] = ratio(d(b.walSyncs, a.walSyncs), ops)
	m["wal.errors"] = d(b.walErrors, a.walErrors)
	m["liveness.not_up_devices"] = float64(b.notUp)
}
