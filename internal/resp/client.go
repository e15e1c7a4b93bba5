// Client-side RESP: a pipelined connection used by spash-cli -connect
// and the replication wire transport.
package resp

import (
	"fmt"
	"net"
	"time"
)

// Client is a pipelined RESP client over one TCP connection. Queue
// commands with Cmd/CmdString, push them with Flush, collect replies
// in order with Next. Do is the one-shot convenience. Not safe for
// concurrent use.
type Client struct {
	conn    net.Conn
	rd      *Reader
	wr      *Writer
	pending int
}

// Dial connects to a RESP server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("resp: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Latency matters more than segment coalescing for a pipelined
		// request/reply protocol.
		_ = tc.SetNoDelay(true)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, rd: NewReader(conn), wr: NewWriter(conn)}
}

// Cmd queues one command without flushing.
func (c *Client) Cmd(args ...[]byte) {
	c.wr.Command(args...)
	c.pending++
}

// CmdString queues one command from string arguments without flushing.
func (c *Client) CmdString(args ...string) {
	c.wr.CommandString(args...)
	c.pending++
}

// Flush pushes all queued commands to the server.
func (c *Client) Flush() error { return c.wr.Flush() }

// Next reads the next in-order reply. The reply's byte slices alias
// the client's read buffer and stay valid until Release.
func (c *Client) Next() (Reply, error) {
	if c.pending == 0 {
		return Reply{}, fmt.Errorf("resp: Next with no pending commands")
	}
	rep, err := c.rd.ReadReply()
	if err != nil {
		return Reply{}, err
	}
	c.pending--
	return rep, nil
}

// Release invalidates all replies returned since the previous Release.
func (c *Client) Release() { c.rd.Release() }

// Do flushes queued commands plus args and returns the final reply,
// draining (and discarding) any earlier pending replies. The reply is
// valid until the next call that touches the reader.
func (c *Client) Do(args ...string) (Reply, error) {
	c.CmdString(args...)
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	var rep Reply
	for c.pending > 0 {
		var err error
		rep, err = c.Next()
		if err != nil {
			return Reply{}, err
		}
	}
	return rep, nil
}

// SetDeadline bounds all subsequent reads and writes.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
