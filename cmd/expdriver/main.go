// Command expdriver reproduces the paper's evaluation: it runs every
// experiment (or a selected subset) and writes the tables as text to
// stdout and as markdown to a results file.
//
// Usage:
//
//	expdriver [-scale full|bench|test] [-exp fig1,fig10,...] [-j N]
//	          [-out results.md] [-v]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The campaign runs in three phases (DESIGN.md §5): it records each
// selected experiment to learn the simulation cells it requests,
// simulates the deduplicated cells, then renders every experiment's
// tables in registry order from the memoized results.
//
// -j runs the campaign's simulation cells on N workers (0 = all CPUs).
// Parallelism changes wall-clock time only: stdout, the markdown file,
// and the CSV tables are byte-identical for every worker count, because
// each cell is a pure function of its configuration and rendering is
// sequential in registry order. Timing and progress go to stderr,
// keeping stdout comparable across runs. Sharded cells drive their
// shards on GOMAXPROCS workers (clamped to the shard count); that
// count, like -j, never changes a byte of output (DESIGN.md §5c).
//
// A full-scale run of all experiments takes tens of minutes on one core;
// -scale bench completes in a few minutes at reduced fidelity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphmem/internal/cli"
	"graphmem/internal/core"
	"graphmem/internal/exp"
)

func main() {
	scale := flag.String("scale", "full", "dataset scale: full, bench, or test")
	expIDs := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	outPath := flag.String("out", "", "write markdown tables to this file")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	workers := flag.Int("j", 1, "parallel simulation workers (0 = all CPUs)")
	verbose := flag.Bool("v", false, "log per-worker progress for each simulation cell")
	listOnly := flag.Bool("list", false, "list experiments and exit")
	footprint := flag.Bool("footprint", false, "stage the ext-fullscale cell at the chosen scale, print the simulator footprint report, and exit")
	priters := flag.Int("pr-iters", 3, "PageRank iteration cap")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			}
		}()
	}

	if *listOnly {
		for _, e := range exp.Registry {
			caps := e.Caps
			if caps == "" {
				caps = "-"
			}
			fmt.Printf("%-14s %-13s %-40s %s\n", e.ID, e.Paper, caps, e.Desc)
		}
		return
	}

	sc, err := cli.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "expdriver: -j %d: want a worker count, or 0 for all CPUs\n", *workers)
		os.Exit(2)
	}
	if *priters < 1 {
		fmt.Fprintf(os.Stderr, "expdriver: -pr-iters %d: want at least 1 iteration\n", *priters)
		os.Exit(2)
	}
	var ids []string
	if *expIDs != "" {
		ids = strings.Split(*expIDs, ",")
	}
	for _, id := range ids {
		if _, ok := exp.Find(strings.TrimSpace(id)); !ok {
			fmt.Fprintf(os.Stderr, "expdriver: unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
	}

	if *workers == 0 {
		*workers = runtime.NumCPU()
	}

	var log io.Writer
	opt := exp.CampaignOptions{Workers: *workers}
	if *verbose {
		log = os.Stderr
		opt.Progress = func(worker, done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[w%d] %d/%d %s\n", worker, done, total, cell)
		}
	}
	s := exp.NewSuite(sc, log)
	s.PRMaxIters = *priters

	if *footprint {
		// A fork of the staged node reports the node's footprint.
		m, img, _ := s.FullscaleCheckpoint().Fork() // the error is always nil
		fp := core.Footprint(m, img)
		fmt.Print(fp.Table().String())
		fmt.Printf("\nfootprint_total_bytes=%d bytes_per_sim_gb=%.0f\n",
			fp.TotalBytes(), fp.BytesPerSimGB())
		// Read the heap while the node is still reachable: once m is
		// dead, a GC frees the node and the reading misses it.
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(m)
		fmt.Fprintf(os.Stderr, "host heap: %.2f MiB in use, %.2f MiB from OS\n",
			float64(ms.HeapInuse)/(1<<20), float64(ms.Sys)/(1<<20))
		return
	}

	start := time.Now()
	results, err := exp.RunCampaign(s, ids, opt, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\ncompleted %d experiments (%d distinct simulation runs, %d workers) in %s\n",
		len(results), s.CachedRunCount(), *workers, time.Since(start).Round(time.Second))

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			os.Exit(1)
		}
		for _, e := range exp.Registry {
			tables, ok := results[e.ID]
			if !ok {
				continue
			}
			for i, t := range tables {
				name := fmt.Sprintf("%s/%s_%d.csv", *csvDir, e.ID, i)
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "expdriver: writing %s: %v\n", name, err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "CSV tables written to %s/\n", *csvDir)
	}

	if *outPath != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# graphmem experiment results\n\nscale=%s, runs=%d\n\n",
			*scale, s.CachedRunCount())
		for _, e := range exp.Registry {
			tables, ok := results[e.ID]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "## %s (%s): %s\n\n", e.ID, e.Paper, e.Desc)
			for _, t := range tables {
				b.WriteString(t.Markdown())
				b.WriteString("\n")
			}
		}
		if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: writing %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "markdown written to %s\n", *outPath)
	}
}
