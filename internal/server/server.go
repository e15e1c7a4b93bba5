// Package server is spash's wire front end: a RESP2-compatible TCP
// server over the sharded DB, speakable with redis-cli and spash-cli
// -connect.
//
// The design goal is to keep the engine's batch pipeline fed. Each
// connection parses commands zero-copy (internal/resp), accumulates
// KV operations into a reusable []spash.Op, and drains each network
// read burst through Session.ExecBatch — one batch per read, replies
// written in arrival order. A bounded per-connection window (MaxBatch)
// is the backpressure: past it the burst is executed and replied
// before more input is parsed, so a fire-hosing client holds at most
// one window of unacknowledged ops, not an unbounded queue.
//
// Close drains gracefully: stop accepting, wake blocked readers, let
// each connection finish (and reply to) the burst it already started,
// then close the sessions. An acknowledged write is on the device
// before its reply is written, so nothing acknowledged is lost.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spash"
	"spash/internal/obs"
	"spash/internal/repl"
)

// Config parameterises a Server.
type Config struct {
	// Addr is the TCP listen address for Start (e.g. "127.0.0.1:6399",
	// ":0" for an ephemeral port).
	Addr string
	// MaxBatch bounds one connection's inflight window: the most ops
	// parsed-but-unreplied at any moment, and so the largest batch
	// handed to ExecBatch. Default 128.
	MaxBatch int
	// IdleTimeout, when positive, closes connections whose next
	// command does not arrive in time. Zero means no limit.
	IdleTimeout time.Duration
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 128
	}
	return c.MaxBatch
}

// Server serves the RESP front end over a DB.
type Server struct {
	db      *spash.DB
	cfg     Config
	reg     *obs.Registry
	replica *repl.Replica // non-nil: REPL.* commands apply here

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
}

// New returns an unstarted server over db.
func New(db *spash.DB, cfg Config) *Server {
	return &Server{db: db, cfg: cfg, reg: db.Obs(), conns: make(map[net.Conn]struct{})}
}

// AttachReplica exposes db's replica role on the wire: REPL.SHIP,
// REPL.FETCH, and REPL.HELLO apply to r. Call before Start.
func (s *Server) AttachReplica(r *repl.Replica) { s.replica = r }

// Start listens on cfg.Addr and serves in a background goroutine,
// returning the bound address (useful with ":0").
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

// Serve accepts on ln until Close. It owns ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.acceptLoop(ln)
	if s.draining.Load() {
		return nil
	}
	return errors.New("server: accept loop exited")
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Close (or fatal accept error)
		}
		if s.draining.Load() {
			_ = conn.Close()
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.reg.Inc(obs.CServeAccepts)
		s.reg.AddGauge(obs.GServeConns, 1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) removeConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.reg.AddGauge(obs.GServeConns, -1)
	_ = conn.Close()
}

// Close drains the server: stop accepting, wake every blocked reader,
// let in-progress bursts finish and flush their replies, then close
// the connections and return. Idempotent.
func (s *Server) Close() error {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	// A connection blocked in a read wakes with a deadline error, sees
	// draining, flushes, and exits. One mid-burst keeps executing — it
	// only re-reads the socket between bursts.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
	return nil
}
