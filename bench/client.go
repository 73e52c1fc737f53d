package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"

	"aorta/internal/netsim"
)

// frame is a response frame decoded as far as the output checks need:
// list elements stay raw so the client does not pay to rebuild rows it
// only counts.
type frame struct {
	ID      string            `json:"id"`
	OK      bool              `json:"ok"`
	Code    string            `json:"code"`
	Error   string            `json:"error"`
	Rows    []json.RawMessage `json:"rows"`
	Queries []json.RawMessage `json:"queries"`
	Names   []string          `json:"names"`
	Metrics json.RawMessage   `json:"metrics"`
}

// evaluatedOnce reports whether a SHOW QUERIES entry has Evals >= 1.
func evaluatedOnce(raw json.RawMessage) bool {
	var info struct{ Evals int64 }
	return json.Unmarshal(raw, &info) == nil && info.Evals >= 1
}

// client is one connection to a front door speaking the tagged line
// protocol. Reads and writes may proceed from different goroutines;
// bytesRead feeds frontdoor.resp_kb_per_stmt.
type client struct {
	conn      net.Conn
	r         *bufio.Reader
	bytesRead atomic.Int64
}

func dialClient(ctx context.Context, network *netsim.Network, addr string) (*client, error) {
	conn, err := network.Dial(ctx, addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 256<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// send writes one tagged statement line.
func (c *client) send(tag int, text string) error {
	var b bytes.Buffer
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(tag))
	b.WriteByte(' ')
	b.WriteString(text)
	b.WriteByte('\n')
	_, err := c.conn.Write(b.Bytes())
	return err
}

// recv reads and decodes the next response frame.
func (c *client) recv() (*frame, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	c.bytesRead.Add(int64(len(line)))
	f := &frame{}
	if err := json.Unmarshal(line, f); err != nil {
		return nil, fmt.Errorf("bad frame %.80q: %w", line, err)
	}
	return f, nil
}

// roundTrip runs one statement and returns its ok:true frame.
func (c *client) roundTrip(text string) (*frame, error) {
	if err := c.send(0, text); err != nil {
		return nil, err
	}
	f, err := c.recv()
	if err != nil {
		return nil, err
	}
	if !f.OK {
		return nil, fmt.Errorf("%s: %s %s", text, f.Code, f.Error)
	}
	return f, nil
}

// setupWindow is how many set-up statements ride the pipeline at once:
// half the door's default per-connection window, so the reader never
// stalls on backpressure.
const setupWindow = 16

// runAll pipelines stmts over the connection and fails on the first frame
// that is not ok:true.
func (c *client) runAll(stmts []string) error {
	sent, done := 0, 0
	for done < len(stmts) {
		for sent < len(stmts) && sent-done < setupWindow {
			if err := c.send(sent, stmts[sent]); err != nil {
				return err
			}
			sent++
		}
		f, err := c.recv()
		if err != nil {
			return err
		}
		if !f.OK {
			i, _ := strconv.Atoi(f.ID)
			return fmt.Errorf("%.60s…: %s %s", stmts[i], f.Code, f.Error)
		}
		done++
	}
	return nil
}
