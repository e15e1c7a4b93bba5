package obs

// buckets is the bucket-count algebra HistSnapshot and DurSnapshot
// share: Counts[b] samples fell in bucket b. Only the value a bucket
// stands for differs between the two.
type buckets []int64

func (b buckets) count() int64 {
	var n int64
	for _, c := range b {
		n += c
	}
	return n
}

// percentile returns the first bucket by which at least p percent of
// the samples are counted (0 when empty). p is in [0, 100].
func (b buckets) percentile(p float64) int {
	total := b.count()
	if total == 0 {
		return 0
	}
	need := int64(p / 100 * float64(total))
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	var cum int64
	for i, c := range b {
		cum += c
		if cum >= need {
			return i
		}
	}
	return len(b) - 1
}

// plus returns b + sign·o bucket-wise (missing buckets treated as zero).
func (b buckets) plus(o buckets, sign int64) []int64 {
	out := make([]int64, max(len(b), len(o)))
	copy(out, b)
	for i, c := range o {
		out[i] += sign * c
	}
	return out
}

// HistSnapshot is a summed histogram: Counts[v] is the number of
// samples with (clamped) value v. Bucket index equals exact value for
// the bounded quantities the registry tracks.
type HistSnapshot struct {
	Counts []int64 `json:"counts"`
}

// Count returns the total number of samples.
func (h HistSnapshot) Count() int64 { return buckets(h.Counts).count() }

// Percentile returns the smallest value v such that at least p percent
// of the samples are ≤ v (0 when empty). p is in [0, 100].
func (h HistSnapshot) Percentile(p float64) int { return buckets(h.Counts).percentile(p) }

// Sub returns h - o bucket-wise (missing buckets treated as zero).
func (h HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	return HistSnapshot{Counts: buckets(h.Counts).plus(o.Counts, -1)}
}

// Add returns h + o bucket-wise.
func (h HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	return HistSnapshot{Counts: buckets(h.Counts).plus(o.Counts, 1)}
}
