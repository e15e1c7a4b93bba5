package server_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spash"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
	"spash/internal/resp"
	"spash/internal/server"
)

func testOpts(n int) spash.Options {
	return spash.Options{
		Shards: n,
		Platform: pmem.Config{
			PoolSize:  uint64(n) * (8 << 20),
			CacheSize: 64 << 10,
			Mode:      pmem.EADR,
		},
		Index: core.Config{InitialDepth: 1, Concurrency: core.ModeHTM},
	}
}

// startServer opens a DB and serves it on an ephemeral loopback port.
func startServer(t *testing.T, shards int, cfg server.Config) (*spash.DB, *server.Server, string) {
	t.Helper()
	return serveDB(t, testOpts(shards), cfg)
}

// serveDB is startServer for a DB opened with opts.
func serveDB(t *testing.T, opts spash.Options, cfg server.Config) (*spash.DB, *server.Server, string) {
	t.Helper()
	db, err := spash.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(db, cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		db.Close()
	})
	return db, srv, addr
}

func dial(t *testing.T, addr string) *resp.Client {
	t.Helper()
	c, err := resp.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func wantSimple(t *testing.T, c *resp.Client, args []string, want string) {
	t.Helper()
	rep, err := c.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if rep.Kind != resp.SimpleString || string(rep.Str) != want {
		t.Fatalf("%v: got %+v, want +%s", args, rep, want)
	}
	c.Release()
}

func TestEndToEndCommands(t *testing.T) {
	_, _, addr := startServer(t, 2, server.Config{})
	c := dial(t, addr)

	wantSimple(t, c, []string{"PING"}, "PONG")
	wantSimple(t, c, []string{"SET", "k1", "v1"}, "OK")
	wantSimple(t, c, []string{"set", "k2", "v2"}, "OK") // case-insensitive

	rep, err := c.Do("GET", "k1")
	if err != nil || rep.Kind != resp.BulkString || string(rep.Str) != "v1" {
		t.Fatalf("GET k1 = %+v, %v", rep, err)
	}
	c.Release()

	rep, err = c.Do("GET", "missing")
	if err != nil || !rep.Null {
		t.Fatalf("GET missing = %+v, %v (want null)", rep, err)
	}
	c.Release()

	rep, err = c.Do("EXISTS", "k1", "k2", "missing")
	if err != nil || rep.Kind != resp.Integer || rep.Int != 2 {
		t.Fatalf("EXISTS = %+v, %v (want :2)", rep, err)
	}
	c.Release()

	rep, err = c.Do("DEL", "k1", "missing", "k2")
	if err != nil || rep.Kind != resp.Integer || rep.Int != 2 {
		t.Fatalf("DEL = %+v, %v (want :2)", rep, err)
	}
	c.Release()

	rep, err = c.Do("GET", "k1")
	if err != nil || !rep.Null {
		t.Fatalf("GET deleted k1 = %+v, %v (want null)", rep, err)
	}
	c.Release()

	// SET is an upsert.
	wantSimple(t, c, []string{"SET", "up", "a"}, "OK")
	wantSimple(t, c, []string{"SET", "up", "bb"}, "OK")
	rep, err = c.Do("GET", "up")
	if err != nil || string(rep.Str) != "bb" {
		t.Fatalf("GET after upsert = %+v, %v", rep, err)
	}
	c.Release()

	rep, err = c.Do("DBSIZE")
	if err != nil || rep.Kind != resp.Integer || rep.Int != 1 {
		t.Fatalf("DBSIZE = %+v, %v (want :1)", rep, err)
	}
	c.Release()

	// Binary-safe round trip.
	bin := "\r\n\x00\xff$*-12345"
	wantSimple(t, c, []string{"SET", "bin", bin}, "OK")
	rep, err = c.Do("GET", "bin")
	if err != nil || string(rep.Str) != bin {
		t.Fatalf("binary GET = %q, %v", rep.Str, err)
	}
	c.Release()

	// redis-cli connection dance.
	rep, err = c.Do("COMMAND", "DOCS")
	if err != nil || rep.Kind != resp.Array || len(rep.Arr) != 0 {
		t.Fatalf("COMMAND DOCS = %+v, %v", rep, err)
	}
	c.Release()
	rep, err = c.Do("HELLO", "3")
	if err != nil || !rep.IsError() || !strings.HasPrefix(string(rep.Str), "NOPROTO") {
		t.Fatalf("HELLO 3 = %+v, %v (want -NOPROTO)", rep, err)
	}
	c.Release()
	wantSimple(t, c, []string{"SELECT", "0"}, "OK")

	// Unknown command: error reply, connection stays usable.
	rep, err = c.Do("FROB", "x")
	if err != nil || !rep.IsError() {
		t.Fatalf("FROB = %+v, %v (want error)", rep, err)
	}
	c.Release()
	wantSimple(t, c, []string{"PING"}, "PONG")

	// Wrong arity: error reply, connection stays usable.
	rep, err = c.Do("GET")
	if err != nil || !rep.IsError() {
		t.Fatalf("bare GET = %+v, %v (want error)", rep, err)
	}
	c.Release()
	wantSimple(t, c, []string{"PING"}, "PONG")
}

func TestPipelinedBurstOrder(t *testing.T) {
	db, _, addr := startServer(t, 2, server.Config{MaxBatch: 8})
	c := dial(t, addr)

	// One write+flush carrying many commands: replies must come back
	// in arrival order even though the window (8) forces several
	// batches, and mixed non-KV commands interleave.
	const n = 100
	for i := 0; i < n; i++ {
		c.CmdString("SET", fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i))
		if i%10 == 0 {
			c.CmdString("PING")
		}
	}
	for i := 0; i < n; i++ {
		c.CmdString("GET", fmt.Sprintf("key%03d", i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rep, err := c.Next()
		if err != nil || string(rep.Str) != "OK" {
			t.Fatalf("SET %d: %+v %v", i, rep, err)
		}
		if i%10 == 0 {
			rep, err = c.Next()
			if err != nil || string(rep.Str) != "PONG" {
				t.Fatalf("PING after SET %d: %+v %v", i, rep, err)
			}
		}
		c.Release()
	}
	for i := 0; i < n; i++ {
		rep, err := c.Next()
		if err != nil || string(rep.Str) != fmt.Sprintf("val%03d", i) {
			t.Fatalf("GET %d: %q %v", i, rep.Str, err)
		}
		c.Release()
	}
	if db.Len() != n {
		t.Fatalf("db holds %d keys, want %d", db.Len(), n)
	}

	// The burst machinery must have recorded multi-op batches.
	snap := db.ObsSnapshot()
	if snap.Counters["serve_batches"] == 0 {
		t.Fatal("no serve_batches recorded")
	}
	if snap.Counters["serve_cmd_set"] != n || snap.Counters["serve_cmd_get"] != n {
		t.Fatalf("per-command counters: %+v", snap.Counters)
	}
}

func TestInlineCommands(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("SET ik iv\r\nGET ik\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	rd := resp.NewReader(conn)
	rep, err := rd.ReadReply()
	if err != nil || string(rep.Str) != "OK" {
		t.Fatalf("inline SET: %+v %v", rep, err)
	}
	rep, err = rd.ReadReply()
	if err != nil || string(rep.Str) != "iv" {
		t.Fatalf("inline GET: %+v %v", rep, err)
	}
	rep, err = rd.ReadReply()
	if err != nil || string(rep.Str) != "PONG" {
		t.Fatalf("inline PING: %+v %v", rep, err)
	}
}

func TestMalformedFrameClosesOnlyThatConnection(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{})
	healthy := dial(t, addr)
	wantSimple(t, healthy, []string{"SET", "pre", "1"}, "OK")

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// A well-framed command followed by a desynchronising frame: the
	// parsed command must still be answered, then the error, then EOF.
	if _, err := bad.Write([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*1\r\n$oops\r\n")); err != nil {
		t.Fatal(err)
	}
	rd := resp.NewReader(bad)
	rep, err := rd.ReadReply()
	if err != nil || string(rep.Str) != "OK" {
		t.Fatalf("SET before bad frame: %+v %v", rep, err)
	}
	rep, err = rd.ReadReply()
	if err != nil || !rep.IsError() || !strings.Contains(string(rep.Str), "Protocol error") {
		t.Fatalf("protocol error reply: %+v %v", rep, err)
	}
	// Server must close this connection now.
	_ = bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := bad.Read(one[:]); err == nil {
		t.Fatal("connection still open after fatal protocol error")
	}

	// The healthy connection is unaffected.
	wantSimple(t, healthy, []string{"PING"}, "PONG")
	rep, err = healthy.Do("GET", "k")
	if err != nil || string(rep.Str) != "v" {
		t.Fatalf("write before the bad frame was lost: %+v %v", rep, err)
	}
	healthy.Release()
}

func TestReplicaModeIsReadOnly(t *testing.T) {
	opts := testOpts(1)
	opts.Replica = true
	db, err := spash.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close(); db.Close() })

	c := dial(t, addr)
	rep, err := c.Do("SET", "k", "v")
	if err != nil || !rep.IsError() || !strings.HasPrefix(string(rep.Str), "READONLY") {
		t.Fatalf("replica SET = %+v, %v (want -READONLY)", rep, err)
	}
	c.Release()
	rep, err = c.Do("GET", "k")
	if err != nil || !rep.Null {
		t.Fatalf("replica GET = %+v, %v (reads must still work)", rep, err)
	}
	c.Release()
}

// TestCloseDrainsAcknowledgedWrites races concurrent writers against
// Close: every SET that was acknowledged with +OK before the
// connection died must be readable afterwards. Run under -race this
// also exercises the drain/handler synchronisation.
func TestCloseDrainsAcknowledgedWrites(t *testing.T) {
	db, srv, addr := startServer(t, 2, server.Config{MaxBatch: 16})

	const workers = 8
	var acked [workers]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			<-start
			for i := 0; ; i++ {
				// Small pipelined windows, acknowledged in order: the
				// count of +OK replies seen is the durable prefix.
				const win = 4
				for j := 0; j < win; j++ {
					c.CmdString("SET", fmt.Sprintf("w%d-%d", w, i*win+j), "x")
				}
				if err := c.Flush(); err != nil {
					return
				}
				for j := 0; j < win; j++ {
					rep, err := c.Next()
					if err != nil {
						return
					}
					if string(rep.Str) == "OK" {
						acked[w].Add(1)
					}
				}
				c.Release()
			}
		}(w)
	}
	close(start)
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	sess := db.Session()
	defer sess.Close()
	for w := 0; w < workers; w++ {
		n := acked[w].Load()
		for i := int64(0); i < n; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			_, found, err := sess.Get([]byte(key), nil)
			if err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
			if !found {
				t.Fatalf("acknowledged write %s lost by drain (worker acked %d)", key, n)
			}
		}
	}
	if db.Obs().GaugeValue(obs.GServeConns) != 0 {
		t.Fatalf("serve_conns gauge = %d after drain, want 0",
			db.Obs().GaugeValue(obs.GServeConns))
	}
	if db.Obs().GaugeValue(obs.GServeInflight) != 0 {
		t.Fatalf("serve_inflight gauge = %d after drain, want 0",
			db.Obs().GaugeValue(obs.GServeInflight))
	}

	// New connections are refused after Close.
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

func TestLargeValues(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{})
	c := dial(t, addr)
	val := strings.Repeat("v", 32<<10) // within core.MaxKVLen
	wantSimple(t, c, []string{"SET", "big", val}, "OK")
	rep, err := c.Do("GET", "big")
	if err != nil || len(rep.Str) != len(val) {
		t.Fatalf("big GET: len=%d err=%v", len(rep.Str), err)
	}
	c.Release()

	// Oversize values error without wedging the connection.
	huge := strings.Repeat("w", 1<<20)
	rep, err = c.Do("SET", "huge", huge)
	if err != nil || !rep.IsError() {
		t.Fatalf("oversize SET = %+v, %v (want error)", rep, err)
	}
	c.Release()
	wantSimple(t, c, []string{"PING"}, "PONG")
}

// A SET the device has no room for answers Redis's OOM refusal, and the
// connection goes on serving: the full DB still reads and deletes.
func TestFullPoolRepliesOOM(t *testing.T) {
	opts := testOpts(1)
	opts.Platform.PoolSize = 2 << 20
	_, _, addr := serveDB(t, opts, server.Config{})
	c := dial(t, addr)
	val := strings.Repeat("v", 1000)
	for i := 0; ; i++ {
		if i > 1<<16 {
			t.Fatal("pool never filled")
		}
		rep, err := c.Do("SET", fmt.Sprintf("key-%d", i), val)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind == resp.SimpleString {
			c.Release()
			continue
		}
		if rep.Kind != resp.ErrorReply || !strings.HasPrefix(string(rep.Str), "OOM ") {
			t.Fatalf("SET %d on a full pool: %+v, want -OOM", i, rep)
		}
		c.Release()
		break
	}
	rep, err := c.Do("GET", "key-0")
	if err != nil || rep.Kind != resp.BulkString || string(rep.Str) != val {
		t.Fatalf("GET on a full pool = %+v, %v", rep, err)
	}
	c.Release()
	rep, err = c.Do("DEL", "key-0")
	if err != nil || rep.Kind != resp.Integer || rep.Int != 1 {
		t.Fatalf("DEL on a full pool = %+v, %v (want :1)", rep, err)
	}
	c.Release()
}

// IdleTimeout closes a connection whose next command is late, keeps one
// that stays busy, and does not hold up Close while its read deadline is
// armed.
func TestIdleTimeoutClosesIdleConnection(t *testing.T) {
	const idle = 50 * time.Millisecond
	db, _, addr := startServer(t, 1, server.Config{IdleTimeout: idle})

	quiet, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	busy := dial(t, addr)

	// The busy client pings every 20 ms for 200 ms: never idle for long.
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		wantSimple(t, busy, []string{"PING"}, "PONG")
		time.Sleep(20 * time.Millisecond)
	}
	wantSimple(t, busy, []string{"PING"}, "PONG")

	// The quiet client sent nothing: the server hung up on it long ago.
	_ = quiet.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := quiet.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("idle connection: read %d bytes, err %v; want EOF from the server", n, err)
	}
	if got := db.Obs().GaugeValue(obs.GServeConns); got != 1 {
		t.Fatalf("serve_conns gauge = %d with one live client, want 1", got)
	}

	// Close wakes a reader whose idle deadline is armed but far off.
	_, srv, addr := startServer(t, 1, server.Config{IdleTimeout: time.Hour})
	waiting := dial(t, addr)
	wantSimple(t, waiting, []string{"PING"}, "PONG")
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not drain a connection with an armed idle deadline")
	}
	if _, err := waiting.Do("PING"); err == nil {
		t.Fatal("connection still served after Close")
	}
}
