package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"spash"
	"spash/internal/resp"
	"spash/internal/server"
)

var (
	verbGet = []byte("GET")
	verbSet = []byte("SET")
	replyOK = []byte("OK")
)

// countConn counts the bytes the client moves, for resp.bytes_*_per_op.
type countConn struct {
	net.Conn
	in, out int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// wire drives internal/server over loopback the way one pipelining RESP
// client does: a closed loop of windows on a single connection.
type wire struct {
	cfg runConfig
	sp  spec
	wl  int
	ks  keyspace

	db   *spash.DB
	srv  *server.Server
	conn *countConn
	cl   *resp.Client
	st   *stream

	key, val, scratch []byte
	pend              []op // the window in flight
	stamp             uint64
	lat               []int32
	attempted, failed int64
	shardOps          []int64 // traced rep: requests per shard
}

func (e *wire) setup() error {
	db, err := openAndLoad(e.sp, e.ks)
	if err != nil {
		return err
	}
	e.db = db
	e.srv = server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := e.srv.Start()
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // as resp.Dial does; failure only costs latency
	}
	e.conn = &countConn{Conn: conn}
	e.cl = resp.NewClient(e.conn)
	e.st = newStream(e.sp, 0, nil)
	e.val, e.scratch = make([]byte, 64), make([]byte, 64)
	e.pend = make([]op, e.sp.window)
	e.stamp = 1 << 56
	e.attempted, e.failed = 0, 0
	return nil
}

// target: the connection's server-side session is the only busy context
// on each shard's pool, so the pools' clocks bracket a rep.
func (e *wire) target() target {
	pools := e.db.Platforms()
	return target{
		db: e.db,
		virtReset: func() {
			for _, p := range pools {
				p.ResetClocks()
			}
		},
		virtRead: func() int64 {
			var d int64
			for _, p := range pools {
				d += p.MaxClock()
			}
			return d
		},
	}
}

func (e *wire) fail(o op, what string, err error) {
	e.failed++
	if e.failed <= 5 {
		fmt.Printf("FAIL wire: %s kind=%d id=%d err=%v\n", what, o.kind, o.id, err)
	}
}

// encode queues one window of commands.
func (e *wire) encode(traced bool) {
	for i := range e.pend {
		o := e.st.next()
		e.pend[i] = o
		e.key = e.ks.key(e.key, o.id)
		if traced {
			e.shardOps[spash.ShardOf(e.key, e.sp.shards)]++
		}
		if o.kind == opGet {
			e.cl.Cmd(verbGet, e.key)
			continue
		}
		e.stamp++
		e.cl.Cmd(verbSet, e.key, e.ks.value(e.val, o.id, e.stamp))
	}
}

// collect reads the replies to pend[lo:hi] and checks each against the
// oracle. A transport error fails every reply of the window still
// outstanding.
func (e *wire) collect(lo, hi int) error {
	for i := lo; i < hi; i++ {
		o := e.pend[i]
		e.attempted++
		rep, err := e.cl.Next()
		if err != nil {
			e.fail(o, "transport", err)
			e.attempted += int64(len(e.pend) - i - 1)
			e.failed += int64(len(e.pend) - i - 1)
			return err
		}
		if e.cfg.faultAt >= 0 && e.attempted > e.cfg.faultAt && len(rep.Str) > 0 {
			rep.Str[len(rep.Str)-1] ^= 0x01
			e.cfg.faultAt = -1
		}
		switch {
		case rep.IsError():
			e.fail(o, "error reply", rep.Err())
		case o.kind == opGet && (rep.Kind != resp.BulkString || rep.Null != o.absent):
			e.fail(o, "found/absent mismatch", nil)
		case o.kind == opGet && !rep.Null && !e.ks.wellFormed(rep.Str, o.id, e.scratch):
			e.fail(o, "malformed value", nil)
		case o.kind == opInsert && !bytes.Equal(rep.Str, replyOK):
			e.fail(o, "SET not acknowledged", nil)
		}
	}
	return nil
}

// rep sends ops commands in windows; a window's latency runs from its
// first Cmd to its last reply parsed.
func (e *wire) rep(rep, ops int, tr *traceSink) (int64, []int32) {
	e.st.reseed(e.cfg.seed, e.wl, rep)
	e.lat = e.lat[:0]
	origin := time.Now()
	var t *tracer
	if tr != nil {
		origin = tr.t0
		t = newTracer(tr.t0, 5*ops/e.sp.window)
		e.shardOps = make([]int64, e.sp.shards)
	}
	var done int64
	for n := 0; n < ops/e.sp.window; n++ {
		var err error
		t0 := int64(time.Since(origin))
		if t == nil {
			e.encode(false)
			if err = e.cl.Flush(); err == nil {
				err = e.collect(0, len(e.pend))
			}
		} else {
			err = e.tracedWindow(t, uint32(n))
		}
		e.cl.Release()
		e.lat = append(e.lat, int32(int64(time.Since(origin))-t0))
		done += int64(len(e.pend))
		if err != nil {
			fmt.Printf("FAIL wire: rep %d stopped after %d ops: %v\n", rep, done, err)
			break
		}
	}
	if tr != nil {
		tr.add(t.spans)
	}
	return done, e.lat
}

// tracedWindow is one window with a span around each client-side step.
// client.wait is the first reply (it blocks until the server's burst
// arrives); client.parse is the rest of the replies and the oracle.
func (e *wire) tracedWindow(t *tracer, req uint32) error {
	root := t.begin(spWindow, -1, req)
	defer t.end(root)
	sp := t.begin(spEncode, root, req)
	e.encode(true)
	t.end(sp)
	sp = t.begin(spFlush, root, req)
	err := e.cl.Flush()
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(spWait, root, req)
	err = e.collect(0, 1)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin(spParse, root, req)
	err = e.collect(1, len(e.pend))
	t.end(sp)
	return err
}

func (e *wire) quiesce() error {
	err := e.cl.Close()
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	e.db, e.srv, e.cl, e.conn = nil, nil, nil, nil
	return err
}

func (e *wire) counts() (attempted, failed int64) { return e.attempted, e.failed }

// verify: wire requests never delete, so every loaded key must be back.
func (e *wire) verify(db *spash.DB) (attempted, failed int64) {
	v := newVerifier(db, e.ks)
	defer v.sess.Close()
	for id := uint64(0); id < uint64(e.sp.records); id += verifyEvery {
		v.check(id, false)
	}
	return v.attempted, v.failed
}
