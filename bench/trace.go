package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aorta/internal/frontdoor"
	"aorta/internal/netsim"
)

// Span names. A statement's spans share its client tag; the shard-side
// Exec spans of a routed statement carry the router's own tag and are
// tied to their parent by statement text and time containment.
const (
	spanClient      = "client.stmt"
	spanCoreExec    = "core.exec"
	spanClusterExec = "cluster.exec"
	spanEvent       = "bench.event"
	spanDetect      = "core.detect_to_outcome"
)

// span is one timed interval at a layer boundary, as written to the
// trace file: times are microseconds from the start of the window.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Node   string `json:"node,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// execSpan is an Exec closure's span as recorded on the hot path.
type execSpan struct {
	name, node, id, stmt string
	start, end           time.Time
}

// tracer holds the harness-owned wrappers of a traced run: Exec closures
// at the door→engine and router→shard-door boundaries and a counting
// dialer under the engines and the router. With on unset the wrappers
// pass straight through, which is how the same assembled system gives an
// untraced reference window first.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	execs []execSpan

	wireBytes  atomic.Int64
	wireWrites atomic.Int64
}

func (t *tracer) wrapExec(name, node string, inner frontdoor.Exec) frontdoor.Exec {
	return func(ctx context.Context, id, stmt string) any {
		if !t.on.Load() {
			return inner(ctx, id, stmt)
		}
		start := time.Now()
		resp := inner(ctx, id, stmt)
		end := time.Now()
		t.mu.Lock()
		t.execs = append(t.execs, execSpan{name: name, node: node, id: id, stmt: stmt, start: start, end: end})
		t.mu.Unlock()
		return resp
	}
}

// countingDialer counts what the engines and the router put on and take
// off the simulated wire.
func (t *tracer) countingDialer(inner netsim.Dialer) netsim.Dialer {
	return dialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := inner.Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, t: t}, nil
	})
}

type dialerFunc func(ctx context.Context, addr string) (net.Conn, error)

func (f dialerFunc) Dial(ctx context.Context, addr string) (net.Conn, error) { return f(ctx, addr) }

type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.wireBytes.Add(int64(n))
	}
	return n, err
}

// Write counts one request: the comm layer and the router each put a whole
// frame or line on the wire per Write.
func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.wireBytes.Add(int64(n))
		c.t.wireWrites.Add(1)
	}
	return n, err
}

// coverage is the total length of the union of intervals clipped to
// [lo, hi): the part of a span its children account for.
func coverage(lo, hi time.Time, children [][2]time.Time) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i][0].Before(children[j][0]) })
	var total time.Duration
	cur := lo
	for _, c := range children {
		s, e := c[0], c[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// writeTrace stores spans as one JSON document.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"unit": "us from window start", "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
