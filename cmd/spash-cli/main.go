// Command spash-cli is an interactive shell over a Spash index on a
// simulated PM device: put/get/update/delete keys, inspect index and
// memory statistics, and inject power failures with recovery.
//
// With -connect host:port it instead speaks RESP to a running
// spash-serve (the client code the replication wire transport uses),
// so the wire front end is testable without redis-cli.
//
// Usage:
//
//	spash-cli [-shards N]
//	spash-cli -connect 127.0.0.1:6399
//	> put user1 hello
//	> get user1
//	> stats
//	> crash        (power failure + recovery)
//	> help
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"spash"
)

func main() {
	shards := flag.Int("shards", 1, "shard count (independent devices + HTM domains)")
	connect := flag.String("connect", "", "connect to a running spash-serve at host:port instead of opening a local index")
	flag.Parse()
	if *connect != "" {
		runConnect(*connect)
		return
	}
	opts := spash.Options{Shards: *shards}
	db, err := spash.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s := db.Session()
	fmt.Println("spash-cli — type 'help' for commands")

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Print(`commands:
  put <key> <value>     insert or replace
  get <key>             look up
  update <key> <value>  update existing key (adaptive in-place)
  del <key>             delete
  len                   number of entries
  lf                    load factor
  stats                 index + PM memory counters
  crash                 simulate power failure, then recover
  fsck [repair]         verify every segment; with 'repair', rebuild damaged ones
  shrink                try to halve the directory
  quit
`)
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			if err := s.Insert([]byte(fields[1]), []byte(fields[2])); err != nil {
				fmt.Println("error:", spash.DescribeError(err))
			} else {
				fmt.Println("ok")
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, ok, err := s.Get([]byte(fields[1]), nil)
			switch {
			case err != nil:
				fmt.Println("error:", spash.DescribeError(err))
			case !ok:
				fmt.Println("(not found)")
			default:
				fmt.Printf("%q\n", v)
			}
		case "update":
			if len(fields) != 3 {
				fmt.Println("usage: update <key> <value>")
				continue
			}
			found, err := s.Update([]byte(fields[1]), []byte(fields[2]))
			switch {
			case err != nil:
				fmt.Println("error:", spash.DescribeError(err))
			case !found:
				fmt.Println("(not found)")
			default:
				fmt.Println("ok")
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			found, err := s.Delete([]byte(fields[1]))
			switch {
			case err != nil:
				fmt.Println("error:", spash.DescribeError(err))
			case !found:
				fmt.Println("(not found)")
			default:
				fmt.Println("ok")
			}
		case "len":
			fmt.Println(db.Len())
		case "lf":
			fmt.Printf("%.3f\n", db.LoadFactor())
		case "stats":
			st := db.Stats()
			if db.Shards() > 1 {
				for i, sh := range st.Shards {
					fmt.Printf("shard %d: entries=%d segments=%d\n", i, sh.Index.Entries, sh.Index.Segments)
				}
			}
			fmt.Printf("entries=%d segments=%d depth-splits=%d merges=%d doublings=%d\n",
				st.Index.Entries, st.Index.Segments, st.Index.Splits, st.Index.Merges, st.Index.Doubles)
			fmt.Printf("htm: conflicts=%d capacity=%d fallbacks=%d collab-stages=%d hot-hits=%d\n",
				st.Index.TxConflicts, st.Index.TxCapacity, st.Index.Fallbacks, st.Index.CollabStages, st.Index.HotHits)
			fmt.Printf("pm: cache hit/miss=%d/%d, media reads=%d XPLines, media writes=%d XPLines, flushes=%d\n",
				st.Memory.CacheHits, st.Memory.CacheMisses, st.Memory.XPLineReads, st.Memory.XPLineWrites, st.Memory.Flushes)
		case "crash":
			s.Close()
			platforms := db.Platforms()
			lost := db.Crash()
			db2, err := spash.RecoverAll(platforms, opts)
			if err != nil {
				fmt.Println("recovery failed:", spash.DescribeError(err))
				os.Exit(1)
			}
			db = db2
			s = db.Session()
			fmt.Printf("power failure: %d cachelines lost across %d device(s) (eADR keeps everything); recovered %d entries\n",
				lost, db.Shards(), db.Len())
		case "fsck":
			repair := len(fields) > 1 && fields[1] == "repair"
			rep, err := s.Fsck(repair)
			if err != nil {
				fmt.Println("error:", spash.DescribeError(err))
				continue
			}
			switch {
			case rep.Clean():
				fmt.Printf("clean (%d segments)\n", rep.Segments)
			case repair:
				fmt.Printf("%d damaged of %d segments: %d repaired, %d unrecoverable, %d keys lost\n",
					len(rep.Faults), rep.Segments, len(rep.Repairs), len(rep.Failed), len(rep.LostKeys()))
			default:
				fmt.Printf("%d damaged of %d segments (rerun as 'fsck repair' to rebuild)\n",
					len(rep.Faults), rep.Segments)
			}
		case "shrink":
			if db.TryShrink() {
				fmt.Println("directory halved")
			} else {
				fmt.Println("(no shrink possible)")
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}
