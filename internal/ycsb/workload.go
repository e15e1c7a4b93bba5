package ycsb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// OpKind is the type of one generated request.
type OpKind int

const (
	OpSearch OpKind = iota
	OpUpdate
	OpInsert
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpSearch:
		return "search"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	default:
		return "delete"
	}
}

// Mix is an operation mixture in percent; the fields must sum to 100.
type Mix struct {
	SearchPct int
	UpdatePct int
	InsertPct int
	DeletePct int
}

// The run-phase mixes evaluated in the paper (§VI-C): YCSB-style
// read-intensive (B-like), balanced (A-like) and write-intensive
// mixtures of Search and Update.
var (
	ReadIntensive  = Mix{SearchPct: 90, UpdatePct: 10}
	Balanced       = Mix{SearchPct: 50, UpdatePct: 50}
	WriteIntensive = Mix{SearchPct: 10, UpdatePct: 90}
	UpdateOnly     = Mix{UpdatePct: 100}
)

// Name returns a short label for a known mix.
func (m Mix) Name() string {
	switch m {
	case ReadIntensive:
		return "read-intensive(90/10)"
	case Balanced:
		return "balanced(50/50)"
	case WriteIntensive:
		return "write-intensive(10/90)"
	case UpdateOnly:
		return "update-only"
	}
	return fmt.Sprintf("mix(%d/%d/%d/%d)", m.SearchPct, m.UpdatePct, m.InsertPct, m.DeletePct)
}

// Pick draws an operation kind according to the mix.
func (m Mix) Pick(rng *rand.Rand) OpKind {
	x := rng.Intn(100)
	if x < m.SearchPct {
		return OpSearch
	}
	x -= m.SearchPct
	if x < m.UpdatePct {
		return OpUpdate
	}
	x -= m.UpdatePct
	if x < m.InsertPct {
		return OpInsert
	}
	return OpDelete
}

// KeyBytes formats a key id as the fixed 16-byte key used in the
// variable-size macro-benchmarks (the paper uses 16-byte keys). The
// encoding is "u:" + 6 zero bytes + 8-byte big-endian id, so keys are
// unique and incompressible by accident.
func KeyBytes(dst []byte, id uint64) []byte {
	dst = dst[:0]
	dst = append(dst, 'u', ':', 0, 0, 0, 0, 0, 0)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return append(dst, b[:]...)
}

// FillValue deterministically fills val as the payload for key id, so
// reads can be verified. val keeps its length.
func FillValue(val []byte, id uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id*0x9E3779B97F4A7C15+1)
	for i := range val {
		val[i] = b[i&7] ^ byte(i>>3)
	}
}
