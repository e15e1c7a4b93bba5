package pmem

// maxPrefetch bounds the number of asynchronous loads a single worker
// keeps in flight, as a core's fill buffers do. A batch has up to
// PipelineDepth+1 bucket loads (the paper's depth tops out at 8) and two
// requests' record lines pending; a probe adds the value lines of the
// fingerprint matches its record stage did not cover, and a single
// operation has only those: a Get's whole value, a write's header line.
// A load still in flight is never dropped to make room: when all of them
// are, a prefetch is not issued (Pool.Prefetch), so a large value's later
// lines are the operation's own misses.
const maxPrefetch = 16

// pfSlots is the number of counters in a prefetch table's line filter (a
// power of two, pfShift its log): at most a quarter are in use, so a line
// with no entry, which is what nearly every access of a batch asks about,
// usually finds its counter at 0.
const (
	pfSlots = 4 * maxPrefetch
	pfShift = 6
)

// pfEntry is one in-flight asynchronous load: the line, and the virtual
// time at which its data becomes usable. settled is one more than the
// table's epoch when the prefetch was the context's last pass through the
// line's cache set si, 0 when it is not known to be (prefetchTable).
type pfEntry struct {
	line    uint64
	done    int64
	settled uint64
	si      uint32
}

// prefetchTable is a context's record of its in-flight asynchronous
// loads. ring holds them in the order they were noted, n of them from
// ring[head]: a full table drops the oldest, and consuming one moves the
// newest into its place. cnt counts the entries whose line hashes to each
// slot, so the many lookups for lines with no entry read one counter, and
// a line that has one is found by a scan of at most maxPrefetch entries.
// Noting, consuming and dropping the oldest each change one counter.
//
// An entry is settled while its settled value is epoch+1. For a context
// alone on its pool, a settled line still holds rank 0 of its set: a
// load of it would enter the set only to change nothing there, and
// Pool.touch charges it without entering (DESIGN.md §2 "The line
// memo"; the argument is the memo's). Every pass of the context through
// a set unsettles that set's settled entry for another line (passed), a
// power cut or a pass outside an operation unsettles them all, and so
// does the next outermost BeginOp. At most one entry is settled per
// group of sets with one si%64 — settling a second unsettles the first —
// and bySet names its ring slot plus one, so a pass checks one entry.
type prefetchTable struct {
	ring  [maxPrefetch]pfEntry
	head  int
	n     int
	cnt   [pfSlots]uint8
	bySet [64]uint8
	epoch uint64
}

func (t *prefetchTable) home(line uint64) int {
	return int((line / CachelineSize * 0x9E3779B97F4A7C15) >> (64 - pfShift))
}

// find returns line's ring slot, or -1.
func (t *prefetchTable) find(line uint64) int {
	if t.cnt[t.home(line)] == 0 {
		return -1
	}
	for k := 0; k < t.n; k++ {
		if r := (t.head + k) % maxPrefetch; t.ring[r].line == line {
			return r
		}
	}
	return -1
}

// note records that line will be available at virtual time done (the
// earlier time if it is already in flight) and returns its ring slot. A
// full table drops the oldest entry first, as a hardware prefetcher with
// limited tracking would.
func (t *prefetchTable) note(line uint64, done int64) int {
	if r := t.find(line); r >= 0 {
		t.ring[r].done = min(t.ring[r].done, done)
		return r
	}
	if t.n == maxPrefetch {
		t.cnt[t.home(t.ring[t.head].line)]--
		t.head = (t.head + 1) % maxPrefetch
		t.n--
	}
	r := (t.head + t.n) % maxPrefetch
	t.ring[r] = pfEntry{line: line, done: done}
	t.cnt[t.home(line)]++
	t.n++
	return r
}

// room makes space to note line at virtual time now without dropping a
// load still in flight, and reports false if it cannot. A full table
// whose oldest entry is still in flight gives up another entry whose data
// has arrived instead: dropping one in flight would lose the wait its
// load owes, since the line is already in the cache.
func (t *prefetchTable) room(line uint64, now int64) bool {
	if t.n < maxPrefetch || t.ring[t.head].done <= now {
		return true
	}
	if t.find(line) >= 0 {
		return true
	}
	for k := 1; k < t.n; k++ {
		if r := (t.head + k) % maxPrefetch; t.ring[r].done <= now {
			t.remove(r)
			return true
		}
	}
	return false
}

// mayHold reports whether line can have an entry: false is the common
// answer, a zero counter, and it is cheap enough to inline.
func (t *prefetchTable) mayHold(line uint64) bool {
	return t.cnt[t.home(line)] != 0
}

// take looks up and removes the in-flight load of line, returning when
// its data arrives.
func (t *prefetchTable) take(line uint64) (done int64, ok bool) {
	r := t.find(line)
	if r < 0 {
		return 0, false
	}
	done = t.ring[r].done
	t.remove(r)
	return done, true
}

// settledAt returns the ring slot of line's settled entry, found through
// its set si without hashing the line, or -1.
func (t *prefetchTable) settledAt(si, line uint64) int {
	if o := int(t.bySet[si%64]) - 1; o >= 0 {
		if e := &t.ring[o]; e.line == line && t.settled(e) {
			return o
		}
	}
	return -1
}

// remove deletes the entry in ring slot r, moving the newest entry into
// its place.
func (t *prefetchTable) remove(r int) {
	e := &t.ring[r]
	if t.settled(e) {
		t.bySet[e.si%64] = 0
	}
	t.cnt[t.home(e.line)]--
	t.n--
	if last := (t.head + t.n) % maxPrefetch; last != r {
		*e = t.ring[last]
		if t.settled(e) {
			t.bySet[e.si%64] = uint8(r + 1)
		}
	}
}

// settle marks the entry in ring slot r, whose line is in set si, as the
// context's last pass through that set, unsettling the one settled entry
// its group of sets may hold.
func (t *prefetchTable) settle(r int, si uint64) {
	g := si % 64
	if o := int(t.bySet[g]) - 1; o >= 0 && o != r && t.settled(&t.ring[o]) && uint64(t.ring[o].si)%64 == g {
		t.ring[o].settled = 0
	}
	t.ring[r].si, t.ring[r].settled = uint32(si), t.epoch+1
	t.bySet[g] = uint8(r + 1)
}

// settled reports whether e is still settled.
func (t *prefetchTable) settled(e *pfEntry) bool { return e.settled == t.epoch+1 }

// dropArrived removes every entry whose data has arrived by now: a
// prefetch its operation did not consume (a fingerprint match whose key
// differed) would otherwise stay until the table fills, making each later
// access to a line that shares its counter scan the ring, and a later
// prefetch of its own line would inherit its done time. An entry still in
// flight stays: its wait is owed.
func (t *prefetchTable) dropArrived(now int64) {
	for k := 0; k < t.n; {
		if r := (t.head + k) % maxPrefetch; t.ring[r].done <= now {
			t.remove(r) // the newest entry moves into r: look at r again
		} else {
			k++
		}
	}
}

// unsettleAll unsettles every entry.
func (t *prefetchTable) unsettleAll() { t.epoch++ }

// passed notes the context's pass through set si for line: a settled
// entry of another line in that set now ranks below it. A line no entry
// can hold (^0) unsettles the set's entry whatever its line.
func (t *prefetchTable) passed(si, line uint64) {
	if o := t.bySet[si%64]; o != 0 {
		if e := &t.ring[o-1]; uint64(e.si) == si && e.line != line {
			e.settled = 0
		}
	}
}
