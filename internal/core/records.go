package core

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sync/atomic"

	"spash/internal/htm"
	"spash/internal/pmem"
)

// mem abstracts PM access so the slot/record engine can run inside any
// atomic section (below) and over a captured segment image. A record
// compare loads word by word, as it may stop early; a bucket scan loads
// its line once (loadLine), and a copy of a record or a segment image is
// one read: both are charged one access per cacheline, like the
// baselines' Pool.LoadLine and Pool.Read.
type mem interface {
	load(addr uint64) uint64
	loadLine(addr uint64) pmem.Line
	read(addr uint64, dst []byte)
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

func (m txMem) load(addr uint64) uint64        { return m.tx.Load(addr) }
func (m txMem) loadLine(addr uint64) pmem.Line { return m.tx.LoadLine(addr) }
func (m txMem) read(addr uint64, dst []byte)   { m.tx.Read(addr, dst) }
func (m txMem) store(addr uint64, v uint64)    { m.tx.Store(addr, v) }
func (m txMem) loadVol(p *uint64) uint64       { return m.tx.LoadVol(p) }
func (m txMem) storeVol(p *uint64, v uint64)   { m.tx.StoreVol(p, v) }

type rawMem struct {
	pool *pmem.Pool
	c    *pmem.Ctx
}

func (m rawMem) load(addr uint64) uint64        { return m.pool.Load64(m.c, addr) }
func (m rawMem) loadLine(addr uint64) pmem.Line { return m.pool.LoadLine(m.c, addr) }
func (m rawMem) read(addr uint64, dst []byte)   { m.pool.Read(m.c, addr, dst) }

//spash:guarded rawMem stores only on recovery and fsck, under a lock mode's covering stripe lock, and into a fresh split segment no directory entry points at yet: serialised outside the HTM domain
func (m rawMem) store(addr uint64, v uint64) { m.pool.Store64(m.c, addr, v) }

func (rawMem) loadVol(p *uint64) uint64     { return atomic.LoadUint64(p) }
func (rawMem) storeVol(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// iMem adapts an irrevocable transaction (fallback path) to the section:
// every touched word's stripe is locked until the irrevocable section
// ends, so the fallback never observes (or is observed at) a
// half-published optimistic commit.
type iMem struct{ it *htm.ITxn }

func (m iMem) load(addr uint64) uint64        { return m.it.Load(addr) }
func (m iMem) loadLine(addr uint64) pmem.Line { return m.it.LoadLine(addr) }
func (m iMem) read(addr uint64, dst []byte)   { m.it.Read(addr, dst) }
func (m iMem) store(addr uint64, v uint64)    { m.it.Store(addr, v) }
func (m iMem) loadVol(p *uint64) uint64       { return m.it.LoadVol(p) }
func (m iMem) storeVol(p *uint64, v uint64)   { m.it.StoreVol(p, v) }

// Out-of-line record layout: one header word — CRC32C of the payload
// in the high 32 bits, the byte length in the low 32 — followed by the
// payload padded to whole words. The CRC is always written (it rides in
// bits the length never uses), so any pool can later be verified by
// fsck; it is *validated* on the hot read path only
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

// readRecord appends the record's payload to dst through m: one header
// load, then one copy of the payload. The length is clamped: a record
// being read by a doomed transaction may have been freed and rewritten,
// and the bogus bytes are discarded by the transaction's validation
// anyway.
func readRecord(m mem, addr uint64, dst []byte) []byte {
	return readPayload(m, addr, m.load(addr), dst)
}

// readCheckedRecord is readRecord that also reports whether the payload
// it copied matches the header's CRC (a length past MaxKVLen never
// does): one header load and one copy serve the bytes and the check.
func readCheckedRecord(m mem, addr uint64, dst []byte) ([]byte, bool) {
	hdr := m.load(addr)
	out := readPayload(m, addr, hdr, dst)
	return out, hdr&recordLenMask <= MaxKVLen && uint32(hdr>>32) == crc32.Checksum(out[len(dst):], crcTable)
}

// readPayload appends the payload of the record at addr, whose header
// word is hdr, to dst through m with one copy.
func readPayload(m mem, addr, hdr uint64, dst []byte) []byte {
	n := int(hdr & recordLenMask)
	if n > MaxKVLen {
		n = 0
	}
	out := slices.Grow(dst, n)[:len(dst)+n]
	m.read(addr+recordHeader, out[len(dst):])
	return out
}

// recordLen returns the record's payload length through m.
func recordLen(m mem, addr uint64) int { return int(m.load(addr) & recordLenMask) }

// recordCRCOK reads the record through m and reports whether its
// payload matches the header CRC. Used by the probe's key-record check,
// the operation guard, fsck and segment salvage; a reader that keeps the
// bytes calls readCheckedRecord instead.
func recordCRCOK(m mem, addr uint64) bool {
	_, ok := readCheckedRecord(m, addr, nil)
	return ok
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
