package server

import (
	"errors"
	"fmt"
	"time"

	"net"

	"spash"
	"spash/internal/obs"
	"spash/internal/resp"
)

// planKind says how to render one reply at flush time. KV plans
// consume ops from the batch (in order); literal plans carry their
// reply inline.
type planKind uint8

const (
	planSet      planKind = iota // 1 op: +OK or -ERR
	planGet                      // 1 op: bulk / null / -ERR
	planCount                    // n ops: :<found-count> (DEL, EXISTS)
	planSimple                   // literal simple string
	planErrLit                   // literal error
	planInt                      // literal integer
	planBulk                     // literal bulk (bytes alias the read buffer)
	planEmptyArr                 // literal empty array
)

type plan struct {
	kind planKind
	n    int    // ops consumed (planSet/planGet/planCount)
	num  int64  // planInt
	lit  string // planSimple/planErrLit
	bs   []byte // planBulk; valid until Release
}

// connState is the per-connection machinery: reader, writer, session,
// and the reusable batch (ops + reply plans + result buffers).
type connState struct {
	srv  *Server
	conn net.Conn
	rd   *resp.Reader
	wr   *resp.Writer
	sess *spash.Session
	lane *obs.Lane

	ops     []spash.Op
	plans   []plan
	resbufs [][]byte
	verb    [32]byte // upper-cased command verb scratch
	quit    bool
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.removeConn(conn)
	c := &connState{
		srv:  s,
		conn: conn,
		rd:   resp.NewReader(conn),
		wr:   resp.NewWriter(conn),
		sess: s.db.Session(),
		lane: s.reg.Lane(),
	}
	defer c.sess.Close()

	for {
		if s.draining.Load() {
			_ = c.wr.Flush()
			return
		}
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			// Re-check after arming the deadline: if Close armed its
			// wake-up deadline between our draining check and our
			// SetReadDeadline, ours overwrote it — this check is what
			// keeps the connection from sleeping through the drain.
			if s.draining.Load() {
				_ = c.wr.Flush()
				return
			}
		}
		args, err := c.rd.ReadCommand()
		if err != nil {
			// A fatal protocol error gets an explanation before the
			// close; I/O errors (EOF, reset, drain wake-up) do not.
			if resp.IsFatal(err) {
				c.lane.Inc(obs.CServeErrors)
				c.wr.Error("ERR Protocol error: " + err.Error())
			}
			_ = c.wr.Flush()
			return
		}
		// Drain the burst: every command already buffered joins this
		// batch; the socket is not read again until replies are out.
		for {
			c.dispatch(args)
			if len(c.ops) >= c.srv.cfg.maxBatch() {
				c.flush() // backpressure: window full, reply before parsing more
			}
			if c.quit {
				break
			}
			var ok bool
			args, ok, err = c.rd.TryReadCommand()
			if err != nil {
				// Malformed frame mid-burst: reply to everything that
				// parsed cleanly, then report and close this
				// connection only.
				c.flush()
				c.lane.Inc(obs.CServeErrors)
				c.wr.Error("ERR Protocol error: " + err.Error())
				_ = c.wr.Flush()
				return
			}
			if !ok {
				break
			}
		}
		c.flush()
		if err := c.wr.Flush(); err != nil {
			return
		}
		c.rd.Release()
		if c.quit {
			return
		}
	}
}

// flush executes the accumulated batch through the session's
// shard-splitting pipeline and writes every pending reply in arrival
// order. Replies land in the writer's buffer; the caller flushes the
// writer at burst end (or sooner on window pressure).
func (c *connState) flush() {
	if len(c.plans) == 0 {
		return
	}
	if len(c.ops) > 0 {
		c.srv.reg.AddGauge(obs.GServeInflight, int64(len(c.ops)))
		c.sess.ExecBatch(c.ops)
		// A GET whose value outgrew its result buffer left Result on a
		// larger array: the slot adopts it, so its next value of that size
		// fits (the reply below renders from Result before queueOp hands
		// the buffer out again).
		for i := range c.ops {
			if r := c.ops[i].Result; cap(r) > cap(c.resbufs[i]) && cap(r) <= maxResbuf {
				c.resbufs[i] = r[:0]
			}
		}
		c.lane.Inc(obs.CServeBatches)
		c.lane.Observe(obs.HServeBatch, len(c.ops))
	}
	opi := 0
	for i := range c.plans {
		p := &c.plans[i]
		switch p.kind {
		case planSet:
			op := &c.ops[opi]
			opi++
			if op.Err != nil {
				c.writeOpError(op.Err)
			} else {
				c.wr.SimpleString("OK")
			}
		case planGet:
			op := &c.ops[opi]
			opi++
			switch {
			case op.Err != nil:
				c.writeOpError(op.Err)
			case op.Found:
				c.wr.Bulk(op.Result)
			default:
				c.wr.NullBulk()
			}
		case planCount:
			var found int64
			var err error
			for k := 0; k < p.n; k++ {
				op := &c.ops[opi]
				opi++
				if op.Err != nil && err == nil {
					err = op.Err
				}
				if op.Found {
					found++
				}
			}
			if err != nil {
				c.writeOpError(err)
			} else {
				c.wr.Int(found)
			}
		case planSimple:
			c.wr.SimpleString(p.lit)
		case planErrLit:
			c.lane.Inc(obs.CServeErrors)
			c.wr.Error(p.lit)
		case planInt:
			c.wr.Int(p.num)
		case planBulk:
			c.wr.Bulk(p.bs)
		case planEmptyArr:
			c.wr.Array(0)
		}
	}
	if len(c.ops) > 0 {
		c.srv.reg.AddGauge(obs.GServeInflight, -int64(len(c.ops)))
	}
	c.ops = c.ops[:0]
	c.plans = c.plans[:0]
}

// writeOpError renders an engine error as a RESP error reply.
func (c *connState) writeOpError(err error) {
	c.lane.Inc(obs.CServeErrors)
	switch {
	case errors.Is(err, spash.ErrNotPrimary):
		c.wr.Error("READONLY You can't write against a read only replica.")
	case errors.Is(err, spash.ErrClosed):
		c.wr.Error("ERR server is shutting down")
	case errors.Is(err, spash.ErrNoSpace):
		c.wr.Error("OOM command not allowed when used memory > 'maxmemory'.")
	default:
		c.wr.Error("ERR " + err.Error())
	}
}

// maxResbuf bounds the result buffer a slot keeps between batches: a
// full window of slots (Config.MaxBatch, 128 by default) that each once
// served a MaxKVLen value would otherwise pin 8 MB per idle connection.
const maxResbuf = 4 << 10

// queueOp appends one KV op to the batch, wiring a reused result
// buffer for reads.
func (c *connState) queueOp(kind spash.OpKind, key, val []byte) {
	i := len(c.ops)
	for len(c.resbufs) <= i {
		c.resbufs = append(c.resbufs, make([]byte, 0, 256))
	}
	var rb []byte
	if kind == spash.OpGet {
		rb = c.resbufs[i][:0]
	}
	//spash:aliased -- the batch executes and its replies flush before the reader's Release; ops is truncated each burst
	c.ops = append(c.ops, spash.Op{Kind: kind, Key: key, Value: val, ResultBuf: rb})
}

func (c *connState) errf(format string, args ...any) {
	c.plans = append(c.plans, plan{kind: planErrLit, lit: fmt.Sprintf(format, args...)})
}

// upperVerb upper-cases args[0] into the scratch buffer; a verb longer
// than the scratch cannot match any known command and keeps its tail.
func (c *connState) upperVerb(v []byte) []byte {
	n := len(v)
	if n > len(c.verb) {
		n = len(c.verb)
	}
	for i := 0; i < n; i++ {
		ch := v[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		c.verb[i] = ch
	}
	return c.verb[:n]
}

// dispatch turns one parsed command into batch ops + a reply plan (or
// handles it inline for the replication verbs).
func (c *connState) dispatch(args [][]byte) {
	c.lane.Inc(obs.CServeCmds)
	// The string conversion inside the switch expression is
	// recognised by the compiler and does not allocate.
	switch string(c.upperVerb(args[0])) {
	case "GET":
		c.lane.Inc(obs.CServeCmdGet)
		if len(args) != 2 {
			c.errf("ERR wrong number of arguments for 'get' command")
			return
		}
		c.queueOp(spash.OpGet, args[1], nil)
		c.plans = append(c.plans, plan{kind: planGet, n: 1})
	case "SET":
		c.lane.Inc(obs.CServeCmdSet)
		if len(args) != 3 {
			c.errf("ERR wrong number of arguments for 'set' command (options are not supported)")
			return
		}
		c.queueOp(spash.OpInsert, args[1], args[2])
		c.plans = append(c.plans, plan{kind: planSet, n: 1})
	case "DEL":
		c.lane.Inc(obs.CServeCmdDel)
		if len(args) < 2 {
			c.errf("ERR wrong number of arguments for 'del' command")
			return
		}
		for _, k := range args[1:] {
			c.queueOp(spash.OpDelete, k, nil)
		}
		c.plans = append(c.plans, plan{kind: planCount, n: len(args) - 1})
	case "EXISTS":
		c.lane.Inc(obs.CServeCmdOther)
		if len(args) < 2 {
			c.errf("ERR wrong number of arguments for 'exists' command")
			return
		}
		for _, k := range args[1:] {
			c.queueOp(spash.OpGet, k, nil)
		}
		c.plans = append(c.plans, plan{kind: planCount, n: len(args) - 1})
	case "PING":
		c.lane.Inc(obs.CServeCmdOther)
		if len(args) > 1 {
			//spash:aliased -- the plan is rendered and flushed before the reader's Release; plans is truncated each burst
			c.plans = append(c.plans, plan{kind: planBulk, bs: args[1]})
		} else {
			c.plans = append(c.plans, plan{kind: planSimple, lit: "PONG"})
		}
	case "ECHO":
		c.lane.Inc(obs.CServeCmdOther)
		if len(args) != 2 {
			c.errf("ERR wrong number of arguments for 'echo' command")
			return
		}
		//spash:aliased -- the plan is rendered and flushed before the reader's Release; plans is truncated each burst
		c.plans = append(c.plans, plan{kind: planBulk, bs: args[1]})
	case "DBSIZE":
		c.lane.Inc(obs.CServeCmdOther)
		c.plans = append(c.plans, plan{kind: planInt, num: int64(c.srv.db.Len())})
	case "INFO":
		c.lane.Inc(obs.CServeCmdOther)
		c.plans = append(c.plans, plan{kind: planBulk, bs: []byte(c.srv.info())})
	case "COMMAND", "CONFIG":
		// redis-cli sends COMMAND DOCS on connect and CONFIG GET for
		// completion hints; an empty array keeps it happy.
		c.lane.Inc(obs.CServeCmdOther)
		c.plans = append(c.plans, plan{kind: planEmptyArr})
	case "HELLO":
		// RESP3 negotiation: refuse like a RESP2-only server so
		// redis-cli falls back cleanly.
		c.lane.Inc(obs.CServeCmdOther)
		c.errf("NOPROTO unsupported protocol version")
	case "SELECT", "CLIENT":
		c.lane.Inc(obs.CServeCmdOther)
		c.plans = append(c.plans, plan{kind: planSimple, lit: "OK"})
	case "QUIT":
		c.lane.Inc(obs.CServeCmdOther)
		c.plans = append(c.plans, plan{kind: planSimple, lit: "OK"})
		c.quit = true
	case "REPL.SHIP":
		// Replication verbs run inline: first execute-and-reply the
		// pending batch so effects and replies stay in arrival order,
		// then apply against the attached replica.
		c.lane.Inc(obs.CServeCmdOther)
		c.flush()
		c.handleRepl(replShip, args)
	case "REPL.FETCH":
		c.lane.Inc(obs.CServeCmdOther)
		c.flush()
		c.handleRepl(replFetch, args)
	case "REPL.HELLO":
		c.lane.Inc(obs.CServeCmdOther)
		c.flush()
		c.handleRepl(replHello, args)
	default:
		c.lane.Inc(obs.CServeCmdOther)
		c.errf("ERR unknown command '%s'", args[0])
	}
}

// info renders a minimal INFO payload from the live snapshot.
func (s *Server) info() string {
	role := "master"
	if s.db.IsReplica() {
		role = "slave"
	}
	return fmt.Sprintf(
		"# Server\r\nserver:spash-serve\r\n\r\n# Replication\r\nrole:%s\r\nepoch:%d\r\n\r\n# Keyspace\r\nkeys:%d\r\nshards:%d\r\nconnections:%d\r\n",
		role, s.db.Epoch(), s.db.Len(), s.db.Shards(),
		s.reg.GaugeValue(obs.GServeConns))
}
