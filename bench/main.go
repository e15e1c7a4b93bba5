// Command bench is the repository's benchmark: four workloads, two
// clocks (the wall clock of this Go process and the simulator's virtual
// clock), end-to-end metrics from untraced runs and per-layer metrics from
// a separate traced run. See README.md.
//
// The contract's driver runs it, through run.sh, as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload, each in a child process so peak RSS is per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the measured reps
// of a run last on the reference box.
const runSeconds = 12

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// seedFlag accepts any 64-bit integer, signed or unsigned: the driver
// chooses the seeds.
type seedFlag int64

func (s *seedFlag) String() string { return strconv.FormatInt(int64(*s), 10) }

func (s *seedFlag) Set(v string) error {
	if n, err := strconv.ParseInt(v, 10, 64); err == nil {
		*s = seedFlag(n)
		return nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	*s = seedFlag(n)
	return err
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := seedFlag(1)
	flag.Var(&seed, "seed", "seed of the key population and op streams")
	seconds := flag.Int("seconds", runSeconds, "scales the fixed op counts: the measured reps last about this long on the reference box")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	scale := flag.String("scale", "full", "full, or tiny (tests only: its numbers are not benchmark results)")
	aa := flag.Bool("aa", false, "run the whole benchmark twice and fail if an end-to-end value differs by more than its bound")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this binary's tables define it, and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	// Two busy goroutines at most on the load side, whatever the host has.
	runtime.GOMAXPROCS(2)

	if *scale != "full" && *scale != "tiny" || *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: int64(seed), seconds: *seconds, scale: *scale, trace: *trace == 1, outDir: *out, faultAt: -1}
	var err error
	switch {
	case *aa:
		err = runAA(cfg)
	case *workload == "":
		_, err = runAll(cfg)
	default:
		err = runOne(cfg, *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchmarkJSON renders the contract's BENCHMARK.json from the tables the
// binary reports by, so the two cannot drift (a test compares them).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, sp := range workloads {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}

// runOne measures one workload in this process and prints the report; the
// contract's JSON object is the last line.
func runOne(cfg runConfig, name string) error {
	sp, wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.scale == "tiny" {
		fmt.Println("*** -scale tiny: sizes for tests only; these numbers are NOT benchmark results ***")
	}
	env := environment(cfg)
	fmt.Printf("workload %s trace=%v %s\n", sp.name, cfg.trace, env)
	res, err := run(cfg, sp, wl)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Println("  #", n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %16.6f %s\n", d.Name, res.vals[d.Name], d.Unit)
	}
	fmt.Printf("  attempted %d failed %d\n", res.attempted, res.failed)
	r := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: report(defs, res.vals)}
	record := struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
		Env      any    `json:"env"`
		result
	}{sp.name, cfg.trace, env, r}
	kind := "result"
	if cfg.trace {
		kind = "layers"
	}
	full, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, kind+"_"+sp.name+".json"), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", sp.name, res.failed, res.attempted)
	}
	return nil
}

// envInfo is recorded with every result.
type envInfo struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
}

func (e envInfo) String() string {
	return fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d seconds=%d scale=%s",
		e.Go, e.NumCPU, e.GOMAXPROCS, e.Commit, e.Seed, e.Seconds, e.Scale)
}

func environment(cfg runConfig) envInfo {
	return envInfo{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale}
}

// commit is the VCS revision the go tool stamped into the binary, or
// "unknown" where the checkout is not a repository (the driver's is not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll runs every workload, each in a child process, and returns the
// end-to-end (or per-layer) values per workload.
func runAll(cfg runConfig) (map[string]map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := make(map[string]map[string]metric, len(workloads))
	for _, sp := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-scale", cfg.scale, "-out", cfg.outDir)
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output() // waits for the child to exit
		os.Stdout.Write(outb)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", sp.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("workload %s: last line is not a result: %w", sp.name, err)
		}
		all[sp.name] = r.Metrics
	}
	return all, nil
}

// runAA runs the whole benchmark twice on the same code and fails if any
// end-to-end value of the second run is worse than the first by more than
// its bound.
func runAA(cfg runConfig) error {
	cfg.trace = false
	a, err := runAll(cfg)
	if err != nil {
		return err
	}
	b, err := runAll(cfg)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("A/A: %-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, sp := range workloads {
		for _, d := range endToEnd {
			x, y := a[sp.name][d.Name].Value, b[sp.name][d.Name].Value
			w := worsening(d, x, y)
			verdict := ""
			if w > d.Bound {
				verdict = "  <-- exceeds bound"
				bad++
			}
			fmt.Printf("A/A: %-14s %-20s %14.6f %14.6f %+7.2f%% %5.1f%%%s\n", sp.name, d.Name, x, y, 100*w, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d values moved by more than their bound between two runs of the same code", bad)
	}
	fmt.Println("A/A: every end-to-end value within its bound")
	return nil
}

// worsening is how much worse y is than x, as a share of x, in the
// metric's own direction (negative: better).
func worsening(d metricDef, x, y float64) float64 {
	if d.Better == "higher" {
		return ratio(x-y, x)
	}
	return ratio(y-x, x)
}
