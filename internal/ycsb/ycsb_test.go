package ycsb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The zipfian generator must match the theoretical rank probabilities
// p(i) = (1/i^θ)/H_{n,θ}.
func TestZipfianMatchesTheory(t *testing.T) {
	const n, draws = 1000, 500000
	const theta = 0.99
	z := NewZipfian(n, theta, 3)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	h := zeta(n, theta)
	for _, rank := range []int{0, 1, 2, 9, 99} {
		want := float64(draws) / (math.Pow(float64(rank+1), theta) * h)
		got := float64(counts[rank])
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("rank %d: %v draws, theory %v", rank, got, want)
		}
	}
}

func TestZipfianRankOrdering(t *testing.T) {
	const n, draws = 10000, 200000
	z := NewZipfian(n, DefaultTheta, 4)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[1000]) {
		t.Fatalf("rank popularity not monotone: %d, %d, %d", counts[0], counts[10], counts[1000])
	}
}

// Scrambling must preserve the skew (some keys much hotter than the
// median) while spreading hot keys over the id space.
func TestScrambledKeepsSkewAndSpreads(t *testing.T) {
	const n, draws = 100000, 200000
	s := NewScrambled(n, DefaultTheta, 5)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		counts[s.Next()]++
	}
	freqs := make([]int, 0, len(counts))
	hot := make([]uint64, 0, 4)
	for k, c := range counts {
		freqs = append(freqs, c)
		if c > draws/100 {
			hot = append(hot, k)
		}
	}
	sort.Ints(freqs)
	if freqs[len(freqs)-1] < draws/100 {
		t.Fatalf("no hot key after scrambling: max freq %d", freqs[len(freqs)-1])
	}
	// Hot keys should not all sit in the low id range.
	spread := false
	for _, k := range hot {
		if k > n/4 {
			spread = true
		}
	}
	if len(hot) > 1 && !spread {
		t.Fatalf("hot keys clustered at low ids: %v", hot)
	}
}

func TestForkIsIndependentButSameDistribution(t *testing.T) {
	z := NewZipfian(1000, DefaultTheta, 7)
	f := z.Fork(8)
	if z.c != f.c {
		t.Fatal("fork did not share constants")
	}
	if z.rng == f.rng {
		t.Fatal("fork shares random state")
	}
}

func TestMixPick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	counts := map[OpKind]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[ReadIntensive.Pick(rng)]++
	}
	if got := counts[OpSearch]; got < draws*85/100 || got > draws*95/100 {
		t.Fatalf("search fraction %d/%d, want ~90%%", got, draws)
	}
	if counts[OpInsert] != 0 || counts[OpDelete] != 0 {
		t.Fatalf("unexpected ops: %v", counts)
	}
}

func TestMixSums(t *testing.T) {
	for _, m := range []Mix{ReadIntensive, Balanced, WriteIntensive, UpdateOnly} {
		if s := m.SearchPct + m.UpdatePct + m.InsertPct + m.DeletePct; s != 100 {
			t.Errorf("mix %s sums to %d", m.Name(), s)
		}
	}
}

func TestKeyBytesUniqueAndFixedSize(t *testing.T) {
	var buf [16]byte
	a := string(KeyBytes(buf[:], 1))
	b := string(KeyBytes(buf[:], 2))
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("key sizes %d/%d", len(a), len(b))
	}
	if a == b {
		t.Fatal("distinct ids produced equal keys")
	}
}

func TestFillValueDeterministic(t *testing.T) {
	v1 := make([]byte, 100)
	v2 := make([]byte, 100)
	FillValue(v1, 42)
	FillValue(v2, 42)
	if string(v1) != string(v2) {
		t.Fatal("FillValue not deterministic")
	}
	FillValue(v2, 43)
	if string(v1) == string(v2) {
		t.Fatal("different ids produced equal values")
	}
}
