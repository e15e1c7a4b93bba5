package main

import (
	"net"
	"strings"
	"testing"

	"spash"
	"spash/internal/pmem"
	"spash/internal/server"
)

// TestConversation feeds the shell the conversation CI holds with a
// live spash-serve and checks every rendered reply in order, so the
// put and len aliases (SET and DBSIZE) stay pinned.
func TestConversation(t *testing.T) {
	db, err := spash.Open(spash.Options{
		Shards:   2,
		Platform: pmem.Config{PoolSize: 16 << 20, CacheSize: 64 << 10, Mode: pmem.EADR},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := strings.NewReader("put smoke v1\nget smoke\nexists smoke\ndel smoke\nget smoke\nping\nlen\nquit\nping\n")
	var out strings.Builder
	if err := runConnect(addr, in, &out); err != nil {
		t.Fatal(err)
	}
	greeting, rest, _ := strings.Cut(out.String(), "\n")
	if want := "spash-cli — connected to " + addr; greeting != want {
		t.Errorf("greeting %q, want %q", greeting, want)
	}
	// One prompt per line read, up to and including quit; the ping
	// after quit is never sent.
	want := []string{"", "OK\n", "\"v1\"\n", "(integer) 1\n", "(integer) 1\n", "(nil)\n", "PONG\n", "(integer) 0\n", ""}
	if got := strings.Split(rest, "> "); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("replies %q, want %q", got, want)
	}
}

// TestConnectRefused: with no server at the address runConnect returns
// the dial error, which main turns into exit 1 (CI's readiness loop
// polls spash-serve that way).
func TestConnectRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var out strings.Builder
	if err := runConnect(addr, strings.NewReader("ping\n"), &out); err == nil {
		t.Fatalf("runConnect to a closed port returned nil; wrote %q", out.String())
	}
}
