package core

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"

	"spash/internal/htm"
	"spash/internal/pmem"
)

// mem abstracts word access to PM so the slot/record engine can run
// inside any atomic section (below) and over a captured segment image.
type mem interface {
	load(addr uint64) uint64
	store(addr uint64, v uint64)
}

// section is the atomic section every operation body and structural
// change (split, merge) runs in: PM words through mem, volatile directory
// words through loadVol/storeVol. Three disciplines provide it: the HTM
// transaction (txMem), the HTM fallback's irrevocable transaction (iMem),
// and raw access while the caller holds the covering stripe lock(s) of a
// lock mode (rawMem, which single-threaded recovery and fsck use too).
type section interface {
	mem
	loadVol(p *uint64) uint64
	storeVol(p *uint64, v uint64)
}

type txMem struct{ tx *htm.Txn }

func (m txMem) load(addr uint64) uint64      { return m.tx.Load(addr) }
func (m txMem) store(addr uint64, v uint64)  { m.tx.Store(addr, v) }
func (m txMem) loadVol(p *uint64) uint64     { return m.tx.LoadVol(p) }
func (m txMem) storeVol(p *uint64, v uint64) { m.tx.StoreVol(p, v) }

type rawMem struct {
	pool *pmem.Pool
	c    *pmem.Ctx
}

func (m rawMem) load(addr uint64) uint64 { return m.pool.Load64(m.c, addr) }

//spash:guarded rawMem stores only on recovery and fsck, under a lock mode's covering stripe lock, and into a fresh split segment no directory entry points at yet: serialised outside the HTM domain
func (m rawMem) store(addr uint64, v uint64) { m.pool.Store64(m.c, addr, v) }

func (rawMem) loadVol(p *uint64) uint64     { return atomic.LoadUint64(p) }
func (rawMem) storeVol(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// iMem adapts an irrevocable transaction (fallback path) to the section:
// every touched word's stripe is locked until the irrevocable section
// ends, so the fallback never observes (or is observed at) a
// half-published optimistic commit.
type iMem struct{ it *htm.ITxn }

func (m iMem) load(addr uint64) uint64      { return m.it.Load(addr) }
func (m iMem) store(addr uint64, v uint64)  { m.it.Store(addr, v) }
func (m iMem) loadVol(p *uint64) uint64     { return m.it.LoadVol(p) }
func (m iMem) storeVol(p *uint64, v uint64) { m.it.StoreVol(p, v) }

// Out-of-line record layout: one header word — CRC32C of the payload
// in the high 32 bits, the byte length in the low 32 — followed by the
// payload padded to whole words. The CRC is always written (it rides in
// bits the length never uses), so any pool can later be verified by
// fsck or the scrubber; it is *validated* on the hot read path only
// when Config.Checksums is on. Key records are immutable once a slot
// referencing them is published; value records may be updated in place
// (transactionally), so readers that need linearizable values must
// read them through txMem or under the lock-mode protocols.
const recordHeader = 8

// recordLenMask extracts the byte length from a header word.
const recordLenMask = 0xFFFFFFFF

// crcTable is the Castagnoli polynomial used for every on-media CRC
// (records and segment seals): CRC32C has hardware support on the
// platforms Spash targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordHeaderWord builds a record header for data.
func recordHeaderWord(data []byte) uint64 {
	return uint64(crc32.Checksum(data, crcTable))<<32 | uint64(len(data))
}

// recordSpace returns the allocation request size for n payload bytes.
func recordSpace(n int) int { return recordHeader + n }

// writeRecordRaw writes a fresh (still private) record.
//
//spash:guarded the record is freshly allocated and unreachable until a slot publish inside a transaction makes it visible
func writeRecordRaw(c *pmem.Ctx, pool *pmem.Pool, addr uint64, data []byte) {
	pool.Store64(c, addr, recordHeaderWord(data))
	pool.Write(c, addr+recordHeader, data)
}

// MaxKVLen bounds key and value payload lengths. Besides being a sane
// API limit, it lets doomed readers (transactions about to abort after
// the record they point at was freed and reused) clamp a garbage
// length before walking memory.
const MaxKVLen = 64 << 10

// readRecord appends the record's payload to dst through m. The
// length is clamped: a record being read by a doomed transaction may
// have been freed and rewritten, and the bogus bytes are discarded by
// the transaction's validation anyway.
func readRecord(m mem, addr uint64, dst []byte) []byte {
	n := int(m.load(addr) & recordLenMask)
	if n < 0 || n > MaxKVLen {
		n = 0
	}
	for off := 0; off < n; off += 8 {
		w := m.load(addr + recordHeader + uint64(off))
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		if n-off < 8 {
			dst = append(dst, b[:n-off]...)
		} else {
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// readKeyRecord is readRecord for an immutable key record, read raw like
// keyRecordEquals: the same loads in the same order as readRecord through
// a rawMem, with no interface value to box per record.
func readKeyRecord(c *pmem.Ctx, pool *pmem.Pool, addr uint64, dst []byte) []byte {
	n := int(pool.Load64(c, addr) & recordLenMask)
	if n > MaxKVLen {
		n = 0
	}
	end := len(dst) + n
	for off := 0; off < n; off += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, pool.Load64(c, addr+recordHeader+uint64(off)))
	}
	return dst[:end]
}

// recordLen returns the record's payload length through m.
func recordLen(m mem, addr uint64) int { return int(m.load(addr) & recordLenMask) }

// recordCRCOK re-reads the record through m and reports whether its
// payload matches the header CRC. Used by the checksummed read path,
// the scrubber, fsck and segment salvage.
func recordCRCOK(m mem, addr uint64) bool {
	hdr := m.load(addr)
	if n := hdr & recordLenMask; n > MaxKVLen {
		return false
	}
	buf := readRecord(m, addr, nil)
	return uint32(hdr>>32) == crc32.Checksum(buf, crcTable)
}

// writeRecordValue updates a record in place through m (the in-place
// update of §III-B; in HTM mode m is transactional, making the
// multi-word update atomic and durable).
func writeRecordValue(m mem, addr uint64, data []byte) {
	m.store(addr, recordHeaderWord(data))
	for off := 0; off < len(data); off += 8 {
		var b [8]byte
		copy(b[:], data[off:])
		m.store(addr+recordHeader+uint64(off), binary.LittleEndian.Uint64(b[:]))
	}
}

// keyRecordEquals compares an immutable key record with key. Key
// records never change after publication, so the comparison reads raw
// regardless of mode; the enclosing transaction's validation of the
// slot's key word makes the result trustworthy at commit time.
func keyRecordEquals(c *pmem.Ctx, pool *pmem.Pool, addr uint64, key []byte) bool {
	if int(pool.Load64(c, addr)&recordLenMask) != len(key) {
		return false
	}
	for off := 0; off < len(key); off += 8 {
		w := pool.Load64(c, addr+recordHeader+uint64(off))
		var b [8]byte
		copy(b[:], key[off:])
		if n := len(key) - off; n < 8 {
			var mask uint64 = 1<<(8*uint(n)) - 1
			if w&mask != binary.LittleEndian.Uint64(b[:])&mask {
				return false
			}
		} else if w != binary.LittleEndian.Uint64(b[:]) {
			return false
		}
	}
	return true
}
