// Command bench is graphmem's benchmark. One invocation runs one
// workload in a fresh process, checks every output it produced against
// reference kernels and golden digests, and prints each metric as
// "name workload value unit", then a one-line JSON summary:
//
//	bash bench/run.sh --workload paper-full --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// With -trace 0 the summary holds the end-to-end metrics; with -trace 1
// it holds the per-layer ledger, derived from spans the benchmark
// records around each call into the simulator's public API. README.md
// explains the workloads, the metrics and the comparison rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"strconv"
	"strings"

	"graphmem/internal/gen"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(args, os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	size     string
	seed     uint64
	seconds  int
	trace    bool
}

// sizing fixes a workload's inputs. "bench" is the benchmark proper;
// "test" keeps the same structure at a size the package tests run in
// seconds.
type sizing struct {
	campaign     gen.Scale // paper-bench's suite scale
	nodeKronLogN int       // paper-node's Kron25-shaped graph
	nodeKronDeg  int
	nodeTwitN    int // paper-node's Twit-shaped graph
	nodeTwitDeg  int
	nodeBytes    uint64 // paper-node's simulated node
	fullKronLogN int    // paper-full's graph
	fullKronDeg  int
}

var sizings = map[string]sizing{
	"bench": {gen.ScaleBench, 16, 12, 80_000, 12, 32 << 30, 20, 16},
	"test":  {gen.ScaleTest, 10, 8, 2_000, 8, 256 << 20, 12, 8},
}

// result accumulates one invocation's rounds. A round is the workload's
// set-up followed by its timed phase and the checks of that phase's
// outputs; a run makes as many rounds as fit in -seconds at the
// workload's nominal round cost.
type result struct {
	cfg    config
	sz     sizing
	tr     *tracer
	golden map[string]string // cell → digest; nil when no golden applies

	rounds         int
	setupsPerRound int
	setups         []float64 // every set-up, s
	walls          []float64 // timed phase per round, s
	cells          []float64 // latency of every timed cell, s

	attempted int
	failed    int
	failures  []string
	failedNow map[string]bool // cells already failed this round

	digests  map[string]string  // round one: cell → output digest
	counters map[string]float64 // round one: simulated counts and sizes
	timings  map[string]float64 // layer times measured outside spans, summed over rounds
	shards   map[string]int     // cell → RunSpec.Shards

	peakRSSMiB float64
}

// fail records a failed check. A cell counts once per round, however
// many of its checks fail.
func (r *result) fail(cell string, err error) {
	r.failures = append(r.failures, fmt.Sprintf("round %d, %s: %v", r.rounds+1, cell, err))
	if !r.failedNow[cell] {
		r.failedNow[cell] = true
		r.failed++
	}
}

func (r *result) first() bool { return r.rounds == 0 }

// setUp times the round's set-up, build, setupsPerRound times and
// returns the inputs the last call made. Between calls it drops the
// previous inputs and collects them, outside the timing, so that the
// process holds one set of inputs at a time, as a user's run does, and
// peak RSS does not depend on when the collector runs.
func setUp[T any](r *result, build func(parent int) (T, error)) (T, error) {
	var in T
	for i := 0; i < r.setupsPerRound; i++ {
		if i > 0 {
			in = *new(T)
			runtime.GC()
		}
		sp := r.tr.start("bench.setup", "", 0)
		var err error
		in, err = build(sp.id)
		r.setups = append(r.setups, sp.stop())
		if err != nil {
			return in, err
		}
	}
	return in, nil
}

// run executes cfg's workload for one or more rounds.
func run(cfg config, goldens goldenDigests) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	sz, ok := sizings[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q (known: bench, test)", cfg.size)
	}
	r := &result{
		cfg:            cfg,
		sz:             sz,
		tr:             newTracer(cfg.trace),
		golden:         goldens[goldenKey(cfg)],
		setupsPerRound: w.setupsPerRound,
		digests:        make(map[string]string),
		counters:       make(map[string]float64),
		timings:        make(map[string]float64),
		shards:         make(map[string]int),
	}
	if k := goldenKey(cfg); k != "" && r.golden == nil {
		r.golden = map[string]string{} // a missing golden set fails every cell
	}
	// The round count depends on -seconds alone, never on measured
	// time, so both sides of a comparison do the same work.
	for rounds := max(1, cfg.seconds/w.roundSeconds); r.rounds < rounds; r.rounds++ {
		r.failedNow = make(map[string]bool)
		if err := w.round(r); err != nil {
			return nil, fmt.Errorf("%s, round %d: %w", cfg.workload, r.rounds+1, err)
		}
	}
	r.tr.closeOpen()
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	r.peakRSSMiB = rss
	return r, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measurement budget: the run makes as many rounds as fit at the workload's nominal round cost (at least one)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics in the summary")
	fs.StringVar(&cfg.size, "size", "bench", "input size: bench, or test (the package tests' size)")
	spansPath := fs.String("spans", "", "with -trace 1, also write the spans to this JSON file")
	outPath := fs.String("out", "", "append the run's record (host, every metric) as a JSON line to this file")
	digestsPath := fs.String("write-digests", "", "store this run's output digests as goldens in this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace is 0 or 1, not %d\n", *trace)
		return 2
	}
	if cfg.seconds < 0 {
		fmt.Fprintf(stderr, "bench: -seconds %d is negative\n", cfg.seconds)
		return 2
	}
	cfg.trace = *trace == 1

	goldens, err := embeddedGoldens()
	if err == nil {
		var r *result
		if r, err = run(cfg, goldens); err == nil {
			err = finish(r, stdout, stderr, *spansPath, *outPath, *digestsPath)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// finish writes the run's side files, then its report. The summary is
// the last line of standard output.
func finish(r *result, stdout, stderr io.Writer, spansPath, outPath, digestsPath string) error {
	if digestsPath != "" {
		key := goldenKey(r.cfg)
		if key == "" {
			return errors.New("-write-digests: goldens are kept at seed 1 only")
		}
		if err := writeGoldens(digestsPath, key, r.digests); err != nil {
			return err
		}
	}
	if spansPath != "" && r.cfg.trace {
		if err := writeJSON(spansPath, r.tr.spans); err != nil {
			return err
		}
	}
	e2e := endToEndMetrics(r)
	layer := simulatedMetrics(r)
	if r.cfg.trace {
		layer = layerMetrics(r)
	}
	if outPath != "" {
		if err := appendRecord(outPath, r, e2e, layer); err != nil {
			return err
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "FAIL %s\n", f)
	}
	for _, d := range endToEnd {
		printMetric(stdout, d.Name, r.cfg.workload, e2e[d.Name])
	}
	for _, d := range perLayer {
		if v, ok := layer[d.Name]; ok {
			printMetric(stdout, d.Name, r.cfg.workload, v)
		}
	}
	fmt.Fprintf(stdout, "rounds %s %d count\n", r.cfg.workload, r.rounds)

	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metricValue{}}
	defs, values := endToEnd, e2e
	if r.cfg.trace {
		defs, values = perLayer, layer
	}
	for _, d := range defs {
		summary.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetric(w io.Writer, name, workload string, v float64) {
	fmt.Fprintf(w, "%s %s %s %s\n", name, workload, strconv.FormatFloat(v, 'f', -1, 64), unitOf(name))
}

// host is the fingerprint compare requires both sides to share.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	h := host{CPU: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// record is one run as compare reads it.
type record struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Size      string             `json:"size"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func appendRecord(path string, r *result, e2e, layer map[string]float64) error {
	rec := record{
		Host: thisHost(), Workload: r.cfg.workload, Size: r.cfg.size, Seed: r.cfg.seed,
		Trace: r.cfg.trace, Rounds: r.rounds, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]float64, len(e2e)+len(layer)),
	}
	maps.Copy(rec.Metrics, e2e)
	maps.Copy(rec.Metrics, layer)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
