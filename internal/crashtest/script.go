package crashtest

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
)

// OpKind is a scripted operation type.
type OpKind int

const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
)

// Op is one scripted, acknowledged index operation.
type Op struct {
	Kind OpKind
	Key  string
	Val  string
}

// Script is a deterministic workload: replayed at every crash step of
// a sweep, trial N and trial N+1 count the same step stream, so the
// sweep ends exactly when N exceeds the workload's total step count.
type Script []Op

// key8 builds an 8-byte key whose inline payload fits 48 bits, hitting
// the inline-key slot path.
func key8(i int) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return string(b[:])
}

// val8 builds an 8-byte inline-value payload.
func val8(i int) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i)*2654435761%1<<47)
	return string(b[:])
}

// pad returns a deterministic printable payload of n bytes.
func pad(seed, n int) string {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = 'a' + byte(x>>24%26)
	}
	return string(b)
}

// DefaultScript returns the standard workload: it drives every
// structure-changing path of the index — inline and out-of-line
// inserts (small records through the compacted-flush chunk path, large
// multi-XPLine records), adaptive updates (inline overwrite, same-class
// in-place, class-changing reallocation, repeated updates that turn a
// key hot), deletes (including the sampled merge path), segment splits
// and, from InitialDepth 1, staged directory doubling.
func DefaultScript() Script {
	var s Script
	// Phase 1: inline inserts, enough to split segments repeatedly and
	// double the directory several times from depth 1.
	for i := 0; i < 56; i++ {
		s = append(s, Op{OpInsert, key8(i), val8(i)})
	}
	// Phase 2: small out-of-line records exercising the compacted-flush
	// XPLine chunk (fills several 256 B chunks with 24..88 B records).
	for i := 0; i < 20; i++ {
		s = append(s, Op{OpInsert, fmt.Sprintf("okey-%03d", i), pad(i, 24+i*3)})
	}
	// Phase 3: large records (several XPLines) and long keys.
	for i := 0; i < 6; i++ {
		s = append(s, Op{OpInsert, "long-key-" + pad(100+i, 24), pad(200+i, 300+i*90)})
	}
	// Phase 4: updates — inline rewrite, same-class in-place,
	// class-changing, and a hot key hammered repeatedly.
	for i := 0; i < 12; i++ {
		s = append(s, Op{OpUpdate, key8(i), val8(1000 + i)})
	}
	for i := 0; i < 10; i++ {
		s = append(s, Op{OpUpdate, fmt.Sprintf("okey-%03d", i), pad(300+i, 24+i*3)}) // same class
	}
	for i := 0; i < 6; i++ {
		s = append(s, Op{OpUpdate, fmt.Sprintf("okey-%03d", i), pad(400+i, 200)}) // class change
	}
	for r := 0; r < 8; r++ {
		s = append(s, Op{OpUpdate, key8(3), val8(2000 + r)}) // hot
	}
	// Phase 5: deletes (sampled merges) interleaved with re-inserts.
	for i := 40; i < 56; i++ {
		s = append(s, Op{OpDelete, key8(i), ""})
	}
	for i := 0; i < 5; i++ {
		s = append(s, Op{OpDelete, fmt.Sprintf("okey-%03d", 15+i), ""})
	}
	for i := 56; i < 72; i++ {
		s = append(s, Op{OpInsert, key8(i), pad(500+i, 48)})
	}
	return s
}

// FillScript is the fill-to-exhaustion workload for a pool of
// poolSize bytes: out-of-line inserts (16 B keys, values of five sizes
// from 100 to 580 B) until their payload is one and a half times the
// pool, so the tail is refused with ErrNoSpace; then, on the full pool,
// same-class updates (in place, accepted), class-changing ones (refused
// while nothing is free) and updates to an inline value (accepted,
// freeing records); deletes of every fourth key; and re-inserts of the
// deleted keys and of as many fresh ones, which fill the freed room and
// are refused again.
func FillScript(poolSize int) Script {
	key := func(i int) string { return fmt.Sprintf("fill-%011d", i) }
	size := func(i int) int { return 100 + i%5*120 }
	var s Script
	n := 0
	for bytes := 0; bytes < poolSize*3/2; n++ {
		s = append(s, Op{OpInsert, key(n), pad(n, size(n))})
		bytes += size(n)
	}
	for i := 0; i < n/2; i += 7 {
		s = append(s, Op{OpUpdate, key(i), pad(n+i, size(i))})             // same class
		s = append(s, Op{OpUpdate, key(i + 1), pad(n+i+1, size(i+1)+700)}) // class change
		s = append(s, Op{OpUpdate, key(i + 2), val8(i + 2)})               // to inline
	}
	for i := 0; i < n; i += 4 {
		s = append(s, Op{OpDelete, key(i), ""})
	}
	for i := 0; i < n; i += 4 {
		s = append(s, Op{OpInsert, key(i), pad(2*n+i, size(i+1))})
		s = append(s, Op{OpInsert, key(n + i), pad(3*n+i, size(i))})
	}
	return s
}

// SeededScript generates a reproducible random workload of ops
// operations over a key universe sized to spread across shards:
// inserts dominate early, then updates and deletes mix in. The same
// seed always yields the same script (and therefore the same step
// stream, which the sweep's termination depends on).
func SeededScript(seed int64, ops int) Script {
	rng := rand.New(rand.NewSource(seed))
	var s Script
	live := make(map[int]bool)
	for len(s) < ops {
		switch {
		case len(live) < 16 || rng.Intn(10) < 5:
			k := rng.Intn(1 << 12)
			s = append(s, Op{OpInsert, key8(k), pad(k, 8+rng.Intn(80))})
			live[k] = true
		case rng.Intn(10) < 7:
			k := anyKey(rng, live)
			s = append(s, Op{OpUpdate, key8(k), pad(1000+k, 8+rng.Intn(120))})
		default:
			k := anyKey(rng, live)
			s = append(s, Op{OpDelete, key8(k), ""})
			delete(live, k)
		}
	}
	return s
}

// anyKey picks a live key deterministically: map iteration order is
// random, so the idx-th key in numeric order is selected instead.
func anyKey(rng *rand.Rand, live map[int]bool) int {
	return slices.Sorted(maps.Keys(live))[rng.Intn(len(live))]
}

// ChurnScript is spash-fsck's workload: records inline inserts (the
// value is the key), then churn rounds of records/2 seeded deletes
// followed by records/2 seeded re-inserts, so the checked image has
// been through splits, merges and slot reuse.
func ChurnScript(records, churn int, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	s := make(Script, 0, records*(1+churn))
	for i := 0; i < records; i++ {
		k := key8(i)
		s = append(s, Op{OpInsert, k, k})
	}
	for r := 0; r < churn; r++ {
		for i := 0; i < records/2; i++ {
			s = append(s, Op{OpDelete, key8(rng.Intn(records)), ""})
		}
		for i := 0; i < records/2; i++ {
			k := key8(rng.Intn(records))
			s = append(s, Op{OpInsert, k, k})
		}
	}
	return s
}
