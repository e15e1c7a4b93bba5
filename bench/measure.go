package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"

	"spash"
	"spash/internal/obs"
)

// repSample is everything measured around one repetition.
type repSample struct {
	ops     int64
	wallNS  int64
	cpuNS   int64 // process user+sys
	virtNS  int64 // virtual clock charged to the serving sessions
	mallocs uint64
	gcs     uint32
	gcPause uint64 // ns
	calibNS int64  // mean of the calibration loop before and after
	snap    obs.Snapshot
	hotHits int64   // updates the hotspot detector classified hot
	lat     []int32 // sorted wall latencies of the caller's request unit, ns
}

func (r *repSample) throughput() float64 { return float64(r.ops) / (float64(r.wallNS) / 1e9) }

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru, err
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() (int64, error) {
	ru, err := rusage()
	return ru.Utime.Nano() + ru.Stime.Nano(), err
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	ru, err := rusage()
	return float64(ru.Maxrss) / 1024, err // Linux reports KiB
}

// calibrate times a fixed hash + pointer-chase loop that touches no
// benchmark state: when it moves between reps, the machine moved, not
// the program.
func calibrate() int64 {
	const n = len(calibRing)
	if calibRing[1] == 0 {
		x := uint32(1)
		for i := range calibRing {
			x = x*1664525 + 1013904223
			calibRing[i] = x % uint32(n)
		}
	}
	t0 := time.Now()
	i, h := uint32(0), uint64(0)
	for k := 0; k < 2_000_000; k++ {
		i = calibRing[(i^uint32(h))&uint32(n-1)]
		h = (h ^ uint64(i)) * 0x100000001B3
	}
	d := time.Since(t0)
	calibSink = h
	return int64(d)
}

var (
	calibRing [1 << 16]uint32
	calibSink uint64
)

// target is what a rep runs against: the DB whose counters are diffed and
// the virtual clocks of the sessions that serve it.
type target struct {
	db *spash.DB
	// virtReset/virtRead bracket a rep's virtual time.
	virtReset func()
	virtRead  func() int64
}

// measureRep runs body between two sets of readings. body returns the
// ops it completed and its sorted latency samples; the wall clock covers
// body alone.
func measureRep(tg target, body func() (int64, []int32)) (repSample, error) {
	runtime.GC()
	var s repSample
	s.calibNS = calibrate()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap0 := tg.db.ObsSnapshot()
	hot0 := tg.db.Stats().Index.HotHits
	tg.virtReset()
	cpu0, err := cpuTime()
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	s.ops, s.lat = body()
	s.wallNS = int64(time.Since(t0))
	cpu1, err := cpuTime()
	if err != nil {
		return s, err
	}
	s.cpuNS = cpu1 - cpu0
	s.virtNS = tg.virtRead()
	s.snap = tg.db.ObsSnapshot().Sub(snap0)
	s.hotHits = tg.db.Stats().Index.HotHits - hot0
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcs = m1.NumGC - m0.NumGC
	s.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	s.calibNS = (s.calibNS + calibrate()) / 2
	slices.Sort(s.lat)
	return s, nil
}

// sumSamples adds samples up; counted metrics come from the sum, wall-clock
// metrics from the best per-rep value.
func sumSamples(samples []repSample) repSample {
	var t repSample
	for i, s := range samples {
		t.ops += s.ops
		t.wallNS += s.wallNS
		t.cpuNS += s.cpuNS
		t.virtNS += s.virtNS
		t.mallocs += s.mallocs
		t.gcs += s.gcs
		t.gcPause += s.gcPause
		if i == 0 {
			t.snap = s.snap
		} else {
			t.snap = t.snap.Add(s.snap)
		}
		t.hotHits += s.hotHits
	}
	return t
}

// perRep applies f to every sample.
func perRep(samples []repSample, f func(*repSample) float64) []float64 {
	v := make([]float64, len(samples))
	for i := range samples {
		v[i] = f(&samples[i])
	}
	return v
}
