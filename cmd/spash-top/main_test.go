package main

import (
	"encoding/binary"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"spash"
	"spash/internal/core"
	"spash/internal/obs"
	"spash/internal/pmem"
)

// TestAttachToDBExporter drives the -addr path against the one live
// exporter: a whole DB's ExportSources served by obs.NewMux, as
// spash-serve -metrics-addr does.
func TestAttachToDBExporter(t *testing.T) {
	db, err := spash.Open(spash.Options{
		Shards:   2,
		Platform: pmem.Config{PoolSize: 16 << 20, CacheSize: 64 << 10, Mode: pmem.EADR},
		Index:    core.Config{SpanSample: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	key := make([]byte, 8)
	for i := uint64(0); i < 300; i++ {
		binary.LittleEndian.PutUint64(key, i)
		if err := s.Insert(key, key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	obs.SetSources(db.ExportSources())
	defer obs.SetSources(obs.Sources{})
	srv := httptest.NewServer(obs.NewMux())
	defer srv.Close()

	fr, err := capture(&httpFeed{base: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.shards) != 2 {
		t.Fatalf("%d shard snapshots, want 2", len(fr.shards))
	}
	if st := fr.health.Status; st < obs.HealthOK || st > obs.HealthCritical {
		t.Fatalf("health status %d out of range", st)
	}

	var b strings.Builder
	render(&b, fr, nil, time.Second, 8)
	out := b.String()
	for _, re := range []string{`(?m)^health: (OK|DEGRADED|CRITICAL)`, `(?m)^probe\s+\S+\s+\S+\s+[1-9]`} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Fatalf("frame lacks %s:\n%s", re, out)
		}
	}
}

// TestParseRefusesOutOfRangeFlags: a negative row count used to panic
// in render's slice and a non-positive interval inside time.NewTicker;
// both are refused at parse time (main exits 2).
func TestParseRefusesOutOfRangeFlags(t *testing.T) {
	for _, args := range []string{
		"-demo -once -n -1",
		"-demo -interval 0",
		"-demo -interval -1s",
		"-once",
	} {
		if _, err := parse(strings.Fields(args)); err == nil {
			t.Errorf("parse(%q) accepted", args)
		}
	}
	cfg, err := parse(strings.Fields("-addr 127.0.0.1:9100 -n 0 -interval 250ms"))
	if err != nil || cfg.slowN != 0 || cfg.interval != 250*time.Millisecond {
		t.Fatalf("parse of valid flags: %+v, %v", cfg, err)
	}
}
