// Command tracetool records and analyzes memory access traces from the
// simulated workloads. The analysis explains the paper's TLB results
// from first principles: it computes exact LRU reuse distances of the
// trace at 4KB and 2MB granularity and reads off the miss rate any
// fully-associative TLB capacity would see — showing directly why 2MB
// translations tame the property array.
//
// Usage:
//
//	tracetool record -app bfs -dataset wiki -scale test -o bfs.gmt
//	tracetool analyze bfs.gmt
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"graphmem/internal/analytics"
	"graphmem/internal/cache"
	"graphmem/internal/cli"
	"graphmem/internal/cost"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracetool record -app <bfs|sssp|pr|cc|bc> -dataset <kr25|twit|web|wiki> [-scale test|bench|full] -o FILE
  tracetool analyze FILE`)
	os.Exit(2)
}

// usageError is a bad invocation: tracetool exits 2 on it, as on a flag
// it does not know, and before it generates any graph.
type usageError struct{ error }

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "bfs", "workload: bfs, sssp, pr, cc, bc")
	dataset := fs.String("dataset", "wiki", "dataset")
	scale := fs.String("scale", "test", "scale (traces grow large: test/bench recommended)")
	out := fs.String("o", "", "output trace file")
	_ = fs.Parse(args)
	if *out == "" {
		return usageError{errors.New("record: -o is required")}
	}
	a, err := cli.ParseApp(*app)
	if err != nil {
		return usageError{err}
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		return usageError{err}
	}
	ds, err := cli.ParseDataset(*dataset)
	if err != nil {
		return usageError{err}
	}

	gr, err := cli.LoadGraph("", ds, sc, a == analytics.SSSP)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; the success path checks Close
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}

	memBytes := 4 * analytics.WSSBytes(a, gr)
	if memBytes < 64<<20 {
		memBytes = 64 << 20
	}
	m := machine.New(machine.Config{
		MemoryBytes: memBytes,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.BaselineConfig(),
	})
	img, err := analytics.NewImage(m, gr, a)
	if err != nil {
		return err
	}
	img.Init(analytics.Natural)
	img.RunTraced(analytics.DefaultRunOptions(gr), w) // the kernel phase only
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d kernel-phase accesses to %s\n", w.Events(), *out)
	fmt.Println("array tags:")
	for i, st := range m.ArrayStats() {
		fmt.Printf("  tag %d = %s\n", i, st.Name)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	if len(args) != 1 {
		return usageError{errors.New("analyze: exactly one trace file expected")}
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var events []trace.Event
	if err := r.ForEach(func(e trace.Event) { events = append(events, e) }); err != nil {
		return err
	}
	fmt.Printf("trace: %d accesses\n\n", len(events))

	h4k := trace.ReuseDistances(events, 12)
	h2m := trace.ReuseDistances(events, 21)

	fmt.Printf("%-28s %10s %10s\n", "", "4KB pages", "2MB pages")
	fmt.Printf("%-28s %10d %10d\n", "distinct pages touched",
		h4k.DistinctBlocks(), h2m.DistinctBlocks())
	rows := []struct {
		name string
		cap  int
	}{
		{"L1 DTLB (64 entries)", 64},
		{"L1 DTLB 2M (32 entries)", 32},
		{"STLB (1024 entries)", 1024},
		{"4x STLB (4096 entries)", 4096},
	}
	for _, row := range rows {
		fmt.Printf("%-28s %9.2f%% %9.2f%%\n", "est. miss, "+row.name,
			100*h4k.MissRate(row.cap), 100*h2m.MissRate(row.cap))
	}

	// Per-tag contribution at the STLB capacity that matters.
	fmt.Printf("\nper-array 4KB reuse profile (misses at 1024-entry TLB):\n")
	tags := map[uint8]bool{}
	for _, e := range events {
		tags[e.Tag] = true
	}
	for tag := 0; tag < 256; tag++ {
		if !tags[uint8(tag)] {
			continue
		}
		ht := trace.ReuseDistances(events, 12, uint8(tag))
		fmt.Printf("  tag %-3d accesses=%-12d miss=%6.2f%%\n",
			tag, ht.Total, 100*ht.MissRate(1024))
	}
	return nil
}
