package pmem

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func faultTestPool(mode Mode) *Pool {
	return New(Config{
		PoolSize:  1 << 20,
		Mode:      mode,
		CacheSize: 1 << 16,
	})
}

// TestFaultStepCounting verifies that a count-only plan (CrashAtStep
// 0) counts exactly one step per persistence primitive and never
// fires.
func TestFaultStepCounting(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	fp := &FaultPlan{}
	p.ArmFault(fp)

	p.Store64(c, 64, 1)           // 1
	p.CAS64(c, 64, 1, 2)          // 2
	p.Write(c, 128, []byte{1, 2}) // 3
	p.NTStore(c, 256, []byte{3})  // 4
	p.Flush(c, 64, 8)             // 5
	p.Fence(c)                    // 6
	p.NTStore(c, 512, nil)        // n==0: not a step
	_ = p.Load64(c, 64)           // loads are not steps
	p.Flush(c, 64, 0)             // size==0: not a step
	if got := fp.Steps(); got != 6 {
		t.Fatalf("Steps() = %d, want 6", got)
	}
	if fp.Fired() {
		t.Fatal("count-only plan fired")
	}
	if p.DisarmFault() != fp {
		t.Fatal("DisarmFault returned wrong plan")
	}
	if p.FaultArmed() {
		t.Fatal("still armed after DisarmFault")
	}
}

// TestFaultFiresAtStep checks that the crash fires before the Nth
// primitive executes: stores 1..N-1 land, store N does not.
func TestFaultFiresAtStep(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	fp := &FaultPlan{CrashAtStep: 3}
	p.ArmFault(fp)

	err := CatchCrash(func() error {
		p.Store64(c, 64, 11) // step 1
		p.Store64(c, 72, 22) // step 2
		p.Store64(c, 80, 33) // step 3: crash fires, store suppressed
		t.Fatal("unreachable: crash did not unwind")
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("CatchCrash err = %v, want ErrInjectedCrash", err)
	}
	if !fp.Fired() {
		t.Fatal("plan did not record firing")
	}
	p.DisarmFault()

	c2 := p.NewCtx()
	if got := p.Load64(c2, 64); got != 11 {
		t.Errorf("word at 64 = %d, want 11 (eADR retains retired stores)", got)
	}
	if got := p.Load64(c2, 72); got != 22 {
		t.Errorf("word at 72 = %d, want 22", got)
	}
	if got := p.Load64(c2, 80); got != 0 {
		t.Errorf("word at 80 = %d, want 0 (crash fires before the step executes)", got)
	}
}

// TestFaultADRRollsBack checks that under ADR an injected crash rolls
// unflushed dirty lines back to their media image while flushed data
// survives.
func TestFaultADRRollsBack(t *testing.T) {
	p := faultTestPool(ADR)
	c := p.NewCtx()

	// Durable prefix, written and flushed before arming.
	p.Store64(c, 64, 7)
	p.Flush(c, 64, 8)
	p.Fence(c)

	fp := &FaultPlan{CrashAtStep: 2}
	p.ArmFault(fp)
	err := CatchCrash(func() error {
		p.Store64(c, 128, 99) // step 1: dirty, never flushed
		p.Store64(c, 192, 55) // step 2: crash
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	if fp.LinesLost() == 0 {
		t.Error("ADR crash lost no lines, want at least the dirty line at 128")
	}
	p.DisarmFault()

	c2 := p.NewCtx()
	if got := p.Load64(c2, 64); got != 7 {
		t.Errorf("flushed word = %d, want 7", got)
	}
	if got := p.Load64(c2, 128); got != 0 {
		t.Errorf("unflushed word = %d, want 0 (ADR rolls dirty lines back)", got)
	}
}

// TestFaultPostCrashAccessesUnwind verifies that once the plan has
// fired, any further persistence primitive (e.g. from a concurrent
// worker) unwinds instead of mutating the post-crash image.
func TestFaultPostCrashAccessesUnwind(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	p.ArmFault(&FaultPlan{CrashAtStep: 1})
	if err := CatchCrash(func() error { p.Store64(c, 64, 1); return nil }); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("first op err = %v", err)
	}
	err := CatchCrash(func() error { p.Store64(c, 72, 2); return nil })
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("post-crash store err = %v, want ErrInjectedCrash", err)
	}
	p.DisarmFault()
	c2 := p.NewCtx()
	if got := p.Load64(c2, 72); got != 0 {
		t.Errorf("post-crash store mutated the image: %d", got)
	}
}

// TestFaultAtomicSection verifies that a failure-atomic section counts
// one step at BeginAtomic and none inside, so a crash can land before
// the section but never within it.
func TestFaultAtomicSection(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	fp := &FaultPlan{}
	p.ArmFault(fp)

	p.BeginAtomic(c) // step 1
	p.Store64(c, 64, 1)
	p.Store64(c, 72, 2)
	p.Store64(c, 80, 3)
	p.EndAtomic(c)
	p.Store64(c, 88, 4) // step 2
	if got := fp.Steps(); got != 2 {
		t.Fatalf("Steps() = %d, want 2 (publish counts once)", got)
	}
	p.DisarmFault()

	// A crash at the atomic section's step leaves all of its stores out.
	p2 := faultTestPool(EADR)
	c2 := p2.NewCtx()
	p2.ArmFault(&FaultPlan{CrashAtStep: 1})
	err := CatchCrash(func() error {
		p2.BeginAtomic(c2)
		p2.Store64(c2, 64, 1)
		p2.Store64(c2, 72, 2)
		p2.EndAtomic(c2)
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v", err)
	}
	p2.DisarmFault()
	c3 := p2.NewCtx()
	if p2.Load64(c3, 64) != 0 || p2.Load64(c3, 72) != 0 {
		t.Error("crash landed inside a failure-atomic section: partial publish visible")
	}
}

// TestCrashQuiescencePanics checks the loud failure when Crash is
// called with an operation in flight and no plan armed.
func TestCrashQuiescencePanics(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	c.BeginOp()
	if p.InFlightOps() != 1 {
		t.Fatalf("InFlightOps = %d, want 1", p.InFlightOps())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Crash() mid-operation without a FaultPlan did not panic")
			}
		}()
		p.Crash()
	}()
	c.EndOp()
	if p.InFlightOps() != 0 {
		t.Fatalf("InFlightOps = %d after EndOp, want 0", p.InFlightOps())
	}
	// Quiescent Crash still works.
	p.Crash()
	// Mid-operation Crash with a plan armed is allowed (routed through
	// the injector's bookkeeping by the caller).
	c.BeginOp()
	p.ArmFault(&FaultPlan{})
	p.Crash()
	p.DisarmFault()
	c.EndOp()
}

// TestInFlightOpsCountsContexts checks that InFlightOps counts the
// contexts with an operation open, not BeginOp depth, and forgets a
// released context.
func TestInFlightOpsCountsContexts(t *testing.T) {
	p := faultTestPool(EADR)
	want := func(n int) {
		t.Helper()
		if got := p.InFlightOps(); got != n {
			t.Fatalf("InFlightOps = %d, want %d", got, n)
		}
	}
	a, b := p.NewCtx(), p.NewCtx()
	a.BeginOp()
	a.BeginOp() // nested: still one operation
	want(1)
	b.BeginOp()
	want(2)
	a.EndOp()
	want(2)
	a.EndOp()
	want(1)
	b.EndOp()
	want(0)

	// A released context is gone from the count, even one released with
	// its operation open: nothing can end that operation any more.
	r := p.NewCtx()
	r.BeginOp()
	r.EndOp()
	r.BeginOp()
	want(1)
	r.Release()
	want(0)
	p.Crash() // quiescent again

	// Counted from another goroutine while the owners open and close
	// operations (the race detector checks the publication).
	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		c := p.NewCtx()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.BeginOp()
				c.BeginOp()
				c.EndOp()
				c.EndOp()
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		if n := p.InFlightOps(); n > workers {
			close(stop)
			wg.Wait()
			t.Fatalf("InFlightOps = %d with %d contexts", n, workers)
		}
	}
	close(stop)
	wg.Wait()
	want(0)
}

// TestCutWaitsForOpenSection checks the drain from the firing side: a cut
// fired while another context has a failure-atomic section open takes
// effect only once that section closes. (Under eADR the section's stores
// survive either way, so only the firing worker's wait shows it.)
func TestCutWaitsForOpenSection(t *testing.T) {
	p := faultTestPool(EADR)
	ca, cb := p.NewCtx(), p.NewCtx()
	p.ArmFault(&FaultPlan{CrashAtStep: 2}) // step 1 is cb's section
	p.BeginAtomic(cb)
	fired := make(chan error)
	go func() {
		fired <- CatchCrash(func() error {
			p.Store64(ca, 0, 1)
			return nil
		})
	}()
	select {
	case err := <-fired:
		t.Fatalf("the cut took effect with a section open (%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.EndAtomic(cb)
	if err := <-fired; !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("firing worker: got %v, want ErrInjectedCrash", err)
	}
}

// TestCatchCrashPassthrough verifies CatchCrash re-panics foreign
// panics and passes through ordinary errors.
func TestCatchCrashPassthrough(t *testing.T) {
	want := errors.New("boom")
	if err := CatchCrash(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	defer func() {
		if r := recover(); r != "other" {
			t.Fatalf("recovered %v, want foreign panic to pass through", r)
		}
	}()
	_ = CatchCrash(func() error { panic("other") })
}

// TestAccessErrorTyped verifies out-of-bounds and misaligned accesses
// panic with the typed AccessError recovery code depends on.
func TestAccessErrorTyped(t *testing.T) {
	p := faultTestPool(EADR)
	c := p.NewCtx()
	catch := func(fn func()) (ae AccessError, ok bool) {
		defer func() {
			r := recover()
			ae, ok = r.(AccessError)
		}()
		fn()
		return
	}
	if ae, ok := catch(func() { p.Load64(c, p.Size()) }); !ok || ae.Misaligned {
		t.Errorf("OOB load: got (%v, %v), want in-bounds AccessError", ae, ok)
	}
	if ae, ok := catch(func() { p.Store64(c, 3, 1) }); !ok || !ae.Misaligned {
		t.Errorf("misaligned store: got (%v, %v), want Misaligned AccessError", ae, ok)
	}
	if ae, ok := catch(func() { p.Read(c, p.Size()-4, make([]byte, 8)) }); !ok {
		t.Errorf("OOB read: got (%v, %v)", ae, ok)
	}
}

// StoreLine steps once per word like the Store64 calls it stands for, so
// a crash at any of its steps leaves exactly the words before it stored;
// it touches the line once, and refuses a word of another line.
func TestStoreLineStepsPerWord(t *testing.T) {
	words := []Word{{Addr: 64, Val: 11}, {Addr: 80, Val: 22}, {Addr: 72, Val: 33}}
	n := int64(len(words))
	for at := int64(1); at <= n+1; at++ {
		p := faultTestPool(EADR)
		c := p.NewCtx()
		fp := &FaultPlan{CrashAtStep: at} // at n+1: no crash
		p.ArmFault(fp)
		err := CatchCrash(func() error {
			p.StoreLine(c, words)
			return nil
		})
		p.DisarmFault()
		stored := min(at-1, n) // the words before the crashing step
		if errors.Is(err, ErrInjectedCrash) != (at <= n) || fp.Steps() != min(at, n) {
			t.Fatalf("crash at step %d: err %v after %d steps", at, err, fp.Steps())
		}
		if s := c.Stats(); stored > 0 && s.CacheHits+s.CacheMisses != 1 {
			t.Errorf("crash at step %d: %d line accesses, want 1", at, s.CacheHits+s.CacheMisses)
		}
		c2 := p.NewCtx()
		for i, w := range words {
			want := w.Val
			if int64(i) >= stored {
				want = 0
			}
			if got := p.Load64(c2, w.Addr); got != want {
				t.Errorf("crash at step %d: word %d = %d, want %d", at, w.Addr, got, want)
			}
		}
	}
	p := faultTestPool(EADR)
	defer func() {
		if recover() == nil {
			t.Error("StoreLine across two lines did not panic")
		}
	}()
	p.StoreLine(p.NewCtx(), []Word{{Addr: 64, Val: 1}, {Addr: 128, Val: 2}})
}
