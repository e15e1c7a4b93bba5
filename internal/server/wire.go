// Replication over the wire: the server side exposes an attached
// repl.Replica through three RESP verbs (REPL.SHIP, REPL.FETCH,
// REPL.HELLO, payloads gob-encoded in one bulk string), and
// WireTransport is the matching client — a repl.Transport that the
// existing retry/breaker/resync machinery drives unchanged.
//
// Typed protocol refusals cross the wire as structured error replies
// ("REPL <CODE> shard=<n> epoch=<n> <text>") and are reconstructed
// into *spash.ReplicationError wrapping the matching sentinel, so
// errors.Is(err, spash.ErrNotPrimary) and friends hold on the client
// exactly as they do in-process. Everything else (I/O errors, plain
// ERR replies) stays untyped, which the retry policy treats as
// transient — the right default for a wire.
package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"spash"
	"spash/internal/obs"
	"spash/internal/repl"
	"spash/internal/resp"
)

// handleRepl serves one replication verb against the attached replica.
// Replies are written inline (the caller flushed the batch first).
type replVerb uint8

const (
	replShip replVerb = iota
	replFetch
	replHello
)

func (c *connState) handleRepl(v replVerb, args [][]byte) {
	r := c.srv.replica
	if r == nil {
		c.lane.Inc(obs.CServeErrors)
		c.wr.Error("ERR replication is not enabled on this server")
		return
	}
	switch v {
	case replShip:
		if len(args) != 2 {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.SHIP takes one frame argument")
			return
		}
		var f repl.Frame
		if err := gob.NewDecoder(bytes.NewReader(args[1])).Decode(&f); err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.SHIP bad frame: " + err.Error())
			return
		}
		if err := r.Apply(&f); err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error(encodeReplError(err))
			return
		}
		c.wr.SimpleString("OK")
	case replFetch:
		if len(args) != 2 {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.FETCH takes one request argument")
			return
		}
		var req repl.FetchReq
		if err := gob.NewDecoder(bytes.NewReader(args[1])).Decode(&req); err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.FETCH bad request: " + err.Error())
			return
		}
		kvs, err := r.Serve(req)
		if err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error(encodeReplError(err))
			return
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(kvs); err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.FETCH encode: " + err.Error())
			return
		}
		c.wr.Bulk(buf.Bytes())
	case replHello:
		h, err := r.Hello()
		if err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error(encodeReplError(err))
			return
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error("ERR REPL.HELLO encode: " + err.Error())
			return
		}
		c.wr.Bulk(buf.Bytes())
	}
}

// replCodes maps each typed replication refusal to its wire code, in
// match order: encodeReplError sends the first sentinel err matches.
var replCodes = []struct {
	code string
	err  error
}{
	{"NOTPRIMARY", spash.ErrNotPrimary},
	{"LAG", spash.ErrReplicaLag},
	{"RESEED", spash.ErrNeedsReseed},
	{"TIMEOUT", spash.ErrTransportTimeout},
	{"EXHAUSTED", spash.ErrRetryExhausted},
	{"CLOSED", spash.ErrClosed},
	{"NOSPACE", spash.ErrNoSpace},
}

// encodeReplError renders a typed replication refusal as a structured
// error line the client can reconstruct: "REPL <CODE> shard=<n>
// epoch=<n> <text>".
func encodeReplError(err error) string {
	code := "ERR"
	for _, c := range replCodes {
		if errors.Is(err, c.err) {
			code = c.code
			break
		}
	}
	shard, epoch := -1, uint64(0)
	var re *spash.ReplicationError
	if errors.As(err, &re) {
		shard, epoch = re.Shard, re.Epoch
	}
	return fmt.Sprintf("REPL %s shard=%d epoch=%d %v", code, shard, epoch, err)
}

// decodeReplError reverses encodeReplError on the client: a "REPL ..."
// error reply becomes a *spash.ReplicationError wrapping the matching
// sentinel (so errors.Is works across the wire); anything else stays
// an untyped (transient, retryable) error.
func decodeReplError(msg string) error {
	rest, ok := strings.CutPrefix(msg, "REPL ")
	if !ok {
		return fmt.Errorf("server: repl refused: %s", msg)
	}
	fields := strings.SplitN(rest, " ", 4)
	if len(fields) < 3 {
		return fmt.Errorf("server: repl refused: %s", msg)
	}
	var sentinel error
	for _, c := range replCodes {
		if fields[0] == c.code {
			sentinel = c.err
			break
		}
	}
	shard := -1
	if v, ok := strings.CutPrefix(fields[1], "shard="); ok {
		if n, err := strconv.Atoi(v); err == nil {
			shard = n
		}
	}
	var epoch uint64
	if v, ok := strings.CutPrefix(fields[2], "epoch="); ok {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			epoch = n
		}
	}
	text := ""
	if len(fields) == 4 {
		text = fields[3]
	}
	if sentinel == nil {
		return fmt.Errorf("server: repl refused: %s", text)
	}
	return &spash.ReplicationError{Op: "wire", Shard: shard, Epoch: epoch,
		Err: fmt.Errorf("%s: %w", text, sentinel)}
}

// WireTransport is a repl.Transport over TCP to a spash-serve peer
// with an attached replica. It keeps one connection, redialing lazily
// after an I/O error — the repl retry policy turns that into
// backoff-and-retry, the breaker into degraded-async, exactly as with
// the in-process transport. Safe for the repl machinery's use (writes
// serialised by the Primary; the background prober synchronises with
// the write path internally), and additionally locked here so a
// misuse cannot interleave frames on the wire.
type WireTransport struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex
	c  *resp.Client
}

// DialTransport returns a WireTransport to addr. timeout bounds the
// dial and each request round trip (default 2s when zero).
func DialTransport(addr string, timeout time.Duration) *WireTransport {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &WireTransport{addr: addr, timeout: timeout}
}

// Close drops the connection (a later call redials).
func (t *WireTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c != nil {
		err := t.c.Close()
		t.c = nil
		return err
	}
	return nil
}

// roundTrip sends one REPL command and returns its reply (copied out
// of the client's buffer). The connection is dropped on any I/O or
// protocol error so the next call starts clean.
func (t *WireTransport) roundTrip(verb string, payload []byte) (resp.Reply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c == nil {
		c, err := resp.Dial(t.addr, t.timeout)
		if err != nil {
			return resp.Reply{}, fmt.Errorf("server: wire transport: %w", err)
		}
		t.c = c
	}
	drop := func(err error) (resp.Reply, error) {
		_ = t.c.Close()
		t.c = nil
		return resp.Reply{}, fmt.Errorf("server: wire transport %s: %w", verb, err)
	}
	if err := t.c.SetDeadline(time.Now().Add(t.timeout)); err != nil {
		return drop(err)
	}
	if payload != nil {
		t.c.Cmd([]byte(verb), payload)
	} else {
		t.c.Cmd([]byte(verb))
	}
	if err := t.c.Flush(); err != nil {
		return drop(err)
	}
	rep, err := t.c.Next()
	if err != nil {
		return drop(err)
	}
	// Copy out of the read buffer before Release.
	out := rep
	out.Str = append([]byte(nil), rep.Str...)
	out.Arr = nil
	t.c.Release()
	return out, nil
}

// Ship implements repl.Transport: synchronous — a nil return means
// the peer applied the frame.
func (t *WireTransport) Ship(f *repl.Frame) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return fmt.Errorf("server: wire transport encode frame: %w", err)
	}
	rep, err := t.roundTrip("REPL.SHIP", buf.Bytes())
	if err != nil {
		return err
	}
	if rep.IsError() {
		return decodeReplError(string(rep.Str))
	}
	return nil
}

// Fetch implements repl.Transport.
func (t *WireTransport) Fetch(req repl.FetchReq) ([]repl.KV, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, fmt.Errorf("server: wire transport encode fetch: %w", err)
	}
	rep, err := t.roundTrip("REPL.FETCH", buf.Bytes())
	if err != nil {
		return nil, err
	}
	if rep.IsError() {
		return nil, decodeReplError(string(rep.Str))
	}
	var kvs []repl.KV
	if err := gob.NewDecoder(bytes.NewReader(rep.Str)).Decode(&kvs); err != nil {
		return nil, fmt.Errorf("server: wire transport decode fetch reply: %w", err)
	}
	return kvs, nil
}

// Hello implements repl.Transport.
func (t *WireTransport) Hello() (repl.Hello, error) {
	rep, err := t.roundTrip("REPL.HELLO", nil)
	if err != nil {
		return repl.Hello{}, err
	}
	if rep.IsError() {
		return repl.Hello{}, decodeReplError(string(rep.Str))
	}
	var h repl.Hello
	if err := gob.NewDecoder(bytes.NewReader(rep.Str)).Decode(&h); err != nil {
		return repl.Hello{}, fmt.Errorf("server: wire transport decode hello: %w", err)
	}
	return h, nil
}
