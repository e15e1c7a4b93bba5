package pmem

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCutDrainsAtomicSection pins the multi-worker firing
// contract: a failure-atomic section that got past its counted step
// before another worker fired the cut must complete its publish in
// full — the cut serialises after the section, never inside it.
// Before the drain existed, worker B's stores below would unwind
// mid-publish, tearing the "all-or-nothing" commit and leaking any
// volatile locks its caller held.
func TestConcurrentCutDrainsAtomicSection(t *testing.T) {
	p := New(Config{PoolSize: 1 << 20, CacheSize: 1 << 16, Mode: EADR})
	cb := p.NewCtx()
	ca := p.NewCtx()

	// Step 1 is B's BeginAtomic; step 2 is A's store, which fires.
	fp := &FaultPlan{CrashAtStep: 2}
	p.ArmFault(fp)

	inside := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var aerr, berr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		berr = CatchCrash(func() error {
			p.BeginAtomic(cb)
			close(inside)
			// Hold the section open until main releases us, giving A
			// time to fire the cut and enter its drain.
			<-release
			for i := uint64(0); i < 8; i++ {
				p.Store64(cb, 256+8*i, i+1)
			}
			p.EndAtomic(cb)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-inside
		aerr = CatchCrash(func() error {
			p.Store64(ca, 0, 1)
			return nil
		})
	}()
	<-inside
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if !errors.Is(aerr, ErrInjectedCrash) {
		t.Fatalf("firing worker: got %v, want ErrInjectedCrash", aerr)
	}
	if berr != nil {
		t.Fatalf("in-flight atomic section was torn by the concurrent cut: %v", berr)
	}
	if !fp.Fired() {
		t.Fatal("fault never fired")
	}
	p.DisarmFault()
	for i := uint64(0); i < 8; i++ {
		if got := p.Load64(cb, 256+8*i); got != i+1 {
			t.Fatalf("word %d: got %d, want %d — section did not retire whole", i, got, i+1)
		}
	}
}

// TestCheckLiveObservesCut: CheckLive is a no-op until an armed fault
// fires, then unwinds with the crash sentinel — the hook volatile spin
// loops use so a waiter whose lock holder died at the cut dies too.
func TestCheckLiveObservesCut(t *testing.T) {
	p := New(Config{PoolSize: 1 << 20, CacheSize: 1 << 16, Mode: EADR})
	c := p.NewCtx()
	p.CheckLive() // no plan armed: must not panic

	fp := &FaultPlan{CrashAtStep: 1}
	p.ArmFault(fp)
	p.CheckLive() // armed but not fired: must not panic

	err := CatchCrash(func() error {
		p.Store64(c, 0, 1)
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("arming store: got %v, want ErrInjectedCrash", err)
	}
	err = CatchCrash(func() error {
		p.CheckLive()
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("CheckLive after the cut: got %v, want ErrInjectedCrash", err)
	}

	p.DisarmFault()
	p.CheckLive() // disarmed for recovery: must not panic
}
