package core

import "sync/atomic"

// maxHotKeys bounds q, the per-partition hot-key list length.
const maxHotKeys = 4

// hotspot is the lightweight hotspot detector of §III-B: the hash
// space is divided into 2^bits partitions by the highest bits of the
// key hash; each partition keeps a tiny LRU list of the q most
// recently re-accessed keys (identified by their full 64-bit hash).
// Because the hash is uniform, the union of the per-partition lists
// tracks the global hot set, and a lookup touches only one partition —
// a handful of DRAM words that stay cache-resident.
//
// The lists are updated with racy atomics: the detector is a
// heuristic, and an occasionally lost promotion only costs one flush
// decision, never correctness.
type hotspot struct {
	bits  uint
	q     int
	parts []hotPart
	// hits is written on every hot update; the words above are read by
	// every touch, so it lives a host line apart.
	_    [7]uint64
	hits atomic.Int64
}

type hotPart struct {
	keys [maxHotKeys]uint64
}

func newHotspot(bits, q int) *hotspot {
	return &hotspot{
		bits:  uint(bits),
		q:     q,
		parts: make([]hotPart, 1<<uint(bits)),
	}
}

// touch records an access to key hash h and reports whether the key
// was already on the hot list (i.e. is hot). A miss promotes the key
// to the front of its partition's LRU list, evicting the list's tail.
func (hs *hotspot) touch(h uint64) bool {
	p := &hs.parts[h>>(64-hs.bits)]
	for i := 0; i < hs.q; i++ {
		if atomic.LoadUint64(&p.keys[i]) == h {
			if i > 0 {
				// Move to front (racy swap: acceptable for an LRU
				// heuristic).
				atomic.StoreUint64(&p.keys[i], atomic.LoadUint64(&p.keys[0]))
				atomic.StoreUint64(&p.keys[0], h)
			}
			hs.hits.Add(1)
			return true
		}
	}
	for i := hs.q - 1; i > 0; i-- {
		atomic.StoreUint64(&p.keys[i], atomic.LoadUint64(&p.keys[i-1]))
	}
	atomic.StoreUint64(&p.keys[0], h)
	return false
}

// peek reports hotness without recording an access (used by tests).
func (hs *hotspot) peek(h uint64) bool {
	p := &hs.parts[h>>(64-hs.bits)]
	for i := 0; i < hs.q; i++ {
		if atomic.LoadUint64(&p.keys[i]) == h {
			return true
		}
	}
	return false
}
