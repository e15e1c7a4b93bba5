package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"spash"
	"spash/internal/resp"
)

// feed hands the replay's request bytes to a resp.Reader one chunk at a
// time, from memory.
type feed struct{ buf []byte }

func (f *feed) Read(p []byte) (int, error) {
	if len(f.buf) == 0 {
		return 0, io.EOF // only if the replay asks for more than it encoded
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

// replayAllocBatches is how many leading batches have their parse
// allocations counted (ReadMemStats stops the world, so not all).
const replayAllocBatches = 256

// replay re-runs one rep's op stream through the server's layers one at a
// time, in process, on the same DB: the request bytes through
// resp.Reader.ReadCommand from memory (resp.parse), the ops through
// Session.ExecBatch in batches of the size the server reported
// (spash.execbatch), the replies through resp.Writer to io.Discard
// (resp.render). SETs rewrite existing keys with same-size values, so the
// replay leaves the key set as it found it. It returns the allocations
// per parsed command.
func (e *wire) replay(rep, ops, batch int, tr *traceSink) (allocsPerCmd float64, err error) {
	st := newStream(e.sp, 0, nil)
	st.reseed(e.cfg.seed, e.wl, rep)
	sess := e.db.Session()
	defer sess.Close()

	var src feed
	rd := resp.NewReader(&src)
	wr := resp.NewWriter(io.Discard)
	var enc bytes.Buffer
	encw := resp.NewWriter(&enc)
	t := newTracer(tr.t0, 3*(ops/batch+1))

	cmds := make([][][]byte, batch)
	bops := make([]spash.Op, batch)
	resbuf := make([][]byte, batch)
	for i := range resbuf {
		resbuf[i] = make([]byte, 0, 256)
	}
	var key []byte
	val := make([]byte, 64)
	stamp := uint64(2) << 56
	var mallocs uint64
	var allocCmds int

	for done, b := 0, 0; done < ops; done, b = done+batch, b+1 {
		n := min(batch, ops-done)
		enc.Reset()
		for i := 0; i < n; i++ {
			o := st.next()
			key = e.ks.key(key, o.id)
			if o.kind == opGet {
				encw.Command(verbGet, key)
			} else {
				stamp++
				encw.Command(verbSet, key, e.ks.value(val, o.id, stamp))
			}
		}
		if err := encw.Flush(); err != nil {
			return 0, err
		}
		src.buf = enc.Bytes()

		var m0, m1 runtime.MemStats
		if b < replayAllocBatches {
			runtime.ReadMemStats(&m0)
		}
		sp := t.begin(spRespParse, -1, uint32(b))
		for i := 0; i < n; i++ {
			if cmds[i], err = rd.ReadCommand(); err != nil {
				return 0, fmt.Errorf("replay parse: %w", err)
			}
		}
		t.end(sp)
		if b < replayAllocBatches {
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			allocCmds += n
		}

		// Batch build, as the connection loop does it; its cost is
		// part of the residual.
		for i := 0; i < n; i++ {
			args := cmds[i]
			if len(args) == 2 {
				bops[i] = spash.Op{Kind: spash.OpGet, Key: args[1], ResultBuf: resbuf[i][:0]}
			} else {
				bops[i] = spash.Op{Kind: spash.OpInsert, Key: args[1], Value: args[2]}
			}
		}
		sp = t.begin(spExecBatch, -1, uint32(b))
		sess.ExecBatch(bops[:n])
		t.end(sp)

		sp = t.begin(spRespRender, -1, uint32(b))
		for i := range bops[:n] {
			o := &bops[i]
			switch {
			case o.Err != nil:
				return 0, fmt.Errorf("replay op %d: %w", done+i, o.Err)
			case o.Kind != spash.OpGet:
				wr.SimpleString("OK")
			case o.Found:
				wr.Bulk(o.Result)
			default:
				wr.NullBulk()
			}
		}
		err := wr.Flush()
		t.end(sp)
		if err != nil {
			return 0, err
		}
		rd.Release()
	}
	tr.add(t.spans)
	return ratio(float64(mallocs), float64(allocCmds)), nil
}
