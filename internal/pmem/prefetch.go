package pmem

// maxPrefetch bounds the number of asynchronous loads a single worker
// keeps in flight, as a core's fill buffers do. Three callers in the
// index issue them. A batch's bucket stage has up to PipelineDepth+1
// main bucket lines pending (the paper's depth tops out at 8). Its record
// stage adds, for up to PipelineDepth-1 requests at a time, the key and
// value record lines of the fingerprint matches in a main bucket, or else
// the overflow bucket lines the bucket's hints name. The probe adds the
// value lines of a match in any bucket the record stage did not load, and
// in a single operation it is the only caller: a Get's whole value, a
// write's header line.
// A load still in flight is never dropped to make room: when all of them
// are, a prefetch is not issued (Pool.Prefetch), so a large value's later
// lines are the operation's own misses. The table only times the loads;
// that a prefetched line need not enter its set again is the line memo's
// to say, whose memoSlots slots hold all of them but the ones that share
// a slot with a later pass.
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
// time at which its data becomes usable.
type pfEntry struct {
	line uint64
	done int64
}

// prefetchTable is a context's record of its in-flight asynchronous
// loads. ring holds them in the order they were noted, n of them from
// ring[head]: a full table drops the oldest, and consuming one moves the
// newest into its place. cnt counts the entries whose line hashes to each
// slot, so the many lookups for lines with no entry read one counter, and
// a line that has one is found by a scan of at most maxPrefetch entries.
// Noting, consuming and dropping the oldest each change one counter.
// Which prefetched lines still hold rank 0 of their set is not the
// table's to know: a prefetch's pass leaves a line memo entry like any
// other (Pool.lookup), and that entry is what serves the load.
type prefetchTable struct {
	ring [maxPrefetch]pfEntry
	head int
	n    int
	cnt  [pfSlots]uint8
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
// earlier time if it is already in flight). A full table drops the
// oldest entry first, as a hardware prefetcher with limited tracking
// would.
func (t *prefetchTable) note(line uint64, done int64) {
	if r := t.find(line); r >= 0 {
		t.ring[r].done = min(t.ring[r].done, done)
		return
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

// remove deletes the entry in ring slot r, moving the newest entry into
// its place.
func (t *prefetchTable) remove(r int) {
	t.cnt[t.home(t.ring[r].line)]--
	t.n--
	if last := (t.head + t.n) % maxPrefetch; last != r {
		t.ring[r] = t.ring[last]
	}
}

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
