// Command spash-dump builds an index from a synthetic workload and
// prints its internal structure: directory depth histogram, segment
// occupancy distribution, overflow/hint usage, allocator occupancy and
// PM traffic — the introspection an operator (or a curious reader of
// the paper) wants when studying the fine-grained extendible layout.
//
// Usage:
//
//	spash-dump [-records 100000] [-valuesize 8] [-deletes 0.2] [-shards N]
//
// With -shards N the database is partitioned; the report shows one
// summary line per shard and histograms merged across all of them.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

	"spash"
	"spash/internal/core"
	"spash/internal/ycsb"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	var ue usageError
	switch {
	case errors.As(err, &ue):
		fmt.Fprintf(os.Stderr, "spash-dump: %v\n", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usageError is a flag value out of its range; main exits 2 on it.
type usageError string

func (e usageError) Error() string { return string(e) }

// run builds the index the flags describe and writes the report to w.
// A bad flag exits 2 and -h exits 0, as with the default flag set; an
// out-of-range value returns a usageError before anything is built.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spash-dump", flag.ExitOnError)
	records := fs.Int("records", 100000, "records to insert")
	valSize := fs.Int("valuesize", 8, "value size in bytes")
	deletes := fs.Float64("deletes", 0.2, "fraction of records deleted afterwards")
	shards := fs.Int("shards", 1, "shard count (independent devices + HTM domains)")
	fs.Parse(args)
	switch {
	case *records < 0:
		return usageError(fmt.Sprintf("-records %d is negative", *records))
	case *valSize < 0:
		return usageError(fmt.Sprintf("-valuesize %d is negative", *valSize))
	case !(*deletes >= 0 && *deletes <= 1):
		return usageError(fmt.Sprintf("-deletes %v is outside [0, 1]", *deletes))
	}

	platform := spash.DefaultPlatform()
	platform.PoolSize = 1 << 30
	db, err := spash.Open(spash.Options{Platform: platform, Shards: *shards})
	if err != nil {
		return err
	}
	s := db.Session()

	kb := make([]byte, 16)
	vb := make([]byte, *valSize)
	for i := uint64(0); i < uint64(*records); i++ {
		var key, val []byte
		if *valSize == 8 {
			binary.LittleEndian.PutUint64(kb[:8], i)
			key = kb[:8]
			binary.LittleEndian.PutUint64(vb, i)
			val = vb[:8]
		} else {
			key = ycsb.KeyBytes(kb, i)
			ycsb.FillValue(vb, i)
			val = vb
		}
		if err := s.Insert(key, val); err != nil {
			return errors.New(spash.DescribeError(err))
		}
	}
	del := uint64(float64(*records) * *deletes)
	for i := uint64(0); i < del; i++ {
		if *valSize == 8 {
			binary.LittleEndian.PutUint64(kb[:8], i*3%uint64(*records))
			s.Delete(kb[:8])
		} else {
			s.Delete(ycsb.KeyBytes(kb, i*3%uint64(*records)))
		}
	}

	ixs := db.Indexes()
	dumps := make([]core.DumpInfo, len(ixs))
	for i, ix := range ixs {
		dumps[i] = ix.Dump(s.ShardCtx(i))
	}
	dump := mergeDumps(dumps)
	st := db.Stats()

	fmt.Fprintf(w, "spash-dump: %d inserts, %d deletes, %dB values, %d shard(s)\n\n", *records, del, *valSize, db.Shards())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if db.Shards() > 1 {
		for i := range dumps {
			fmt.Fprintf(tw, "shard %d\tentries %d, segments %d, global depth %d\n",
				i, st.Shards[i].Index.Entries, st.Shards[i].Index.Segments, dumps[i].GlobalDepth)
		}
	}
	fmt.Fprintf(tw, "entries\t%d\n", st.Index.Entries)
	fmt.Fprintf(tw, "segments\t%d\n", st.Index.Segments)
	dirEntries := 0
	for i := range dumps {
		dirEntries += 1 << dumps[i].GlobalDepth
	}
	fmt.Fprintf(tw, "global depth\t%d (directories %d entries total)\n", dump.GlobalDepth, dirEntries)
	fmt.Fprintf(tw, "load factor\t%.3f\n", db.LoadFactor())
	fmt.Fprintf(tw, "splits / merges / doublings\t%d / %d / %d\n",
		st.Index.Splits, st.Index.Merges, st.Index.Doubles)
	fmt.Fprintf(tw, "HTM conflicts / capacity / fallbacks\t%d / %d / %d\n",
		st.Index.TxConflicts, st.Index.TxCapacity, st.Index.Fallbacks)
	fmt.Fprintf(tw, "overflow entries (hinted)\t%d (%.1f%% of entries)\n",
		dump.OverflowEntries, 100*float64(dump.OverflowEntries)/float64(max(st.Index.Entries, 1)))
	fmt.Fprintf(tw, "out-of-line keys / values\t%d / %d\n", dump.KeyRecords, dump.ValueRecords)
	fmt.Fprintf(tw, "PM media traffic\t%d XPLine reads, %d XPLine writes\n",
		st.Memory.XPLineReads, st.Memory.XPLineWrites)
	if dump.PoisonedSegments > 0 {
		fmt.Fprintf(tw, "POISONED segments (unreadable, excluded above)\t%d\n", dump.PoisonedSegments)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nlocal-depth histogram (segments per depth):")
	maxDepth := slices.Max(dump.DepthHistogram)
	for d, n := range dump.DepthHistogram {
		if n > 0 {
			fmt.Fprintf(w, "  depth %2d: %6d %s\n", d, n, bar(n, maxDepth))
		}
	}
	fmt.Fprintln(w, "\nsegment occupancy histogram (entries per 16-slot segment):")
	maxOcc := slices.Max(dump.OccupancyHistogram)
	for o, n := range dump.OccupancyHistogram {
		fmt.Fprintf(w, "  %2d/16: %6d %s\n", o, n, bar(n, maxOcc))
	}
	return nil
}

// mergeDumps folds per-shard structure reports into one: histograms
// are summed slot-wise, counters added, and the reported global depth
// is the deepest shard's (each shard owns its own directory).
func mergeDumps(dumps []core.DumpInfo) core.DumpInfo {
	out := dumps[0]
	for _, d := range dumps[1:] {
		if d.GlobalDepth > out.GlobalDepth {
			out.GlobalDepth = d.GlobalDepth
		}
		if len(d.DepthHistogram) > len(out.DepthHistogram) {
			out.DepthHistogram = append(out.DepthHistogram,
				make([]int, len(d.DepthHistogram)-len(out.DepthHistogram))...)
		}
		for i, n := range d.DepthHistogram {
			out.DepthHistogram[i] += n
		}
		for i, n := range d.OccupancyHistogram {
			out.OccupancyHistogram[i] += n
		}
		out.OverflowEntries += d.OverflowEntries
		out.KeyRecords += d.KeyRecords
		out.ValueRecords += d.ValueRecords
		out.PoisonedSegments += d.PoisonedSegments
	}
	return out
}

func bar(n, max int) string {
	if max == 0 {
		return ""
	}
	w := n * 40 / max
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
