// Command advisor turns a graph into concrete huge page guidance: which
// 2MB regions of the property array deserve MADV_HUGEPAGE under a given
// huge page budget, what fraction of the irregular accesses that plan
// captures, and whether degree-based reordering is worth running first.
// It is the programmer-facing distillation of the paper's §5.
//
// Usage:
//
//	advisor -dataset kr25 -scale full -app bfs -budget-mb 8
//	advisor -file twit.gmg -coverage 0.8
package main

import (
	"flag"
	"fmt"
	"os"

	"graphmem/internal/analytics"
	"graphmem/internal/cli"
	"graphmem/internal/memsys"
	"graphmem/internal/profile"
	"graphmem/internal/reorder"
)

func main() {
	dataset := flag.String("dataset", "kr25", "dataset: kr25, twit, web, wiki")
	file := flag.String("file", "", "GMG1 graph file (overrides -dataset)")
	scale := flag.String("scale", "full", "generated dataset scale")
	app := flag.String("app", "bfs", "workload: bfs, sssp, pr, cc")
	budgetMB := flag.Int("budget-mb", 0, "huge page budget in MB (2MB granularity)")
	coverage := flag.Float64("coverage", 0, "alternatively: target access coverage (0,1]")
	flag.Parse()

	a, err := cli.ParseApp(*app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(2)
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil && *file == "" {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(2)
	}
	ds, err := cli.ParseDataset(*dataset)
	if err != nil && *file == "" {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(2)
	}
	if *budgetMB <= 0 {
		switch {
		case *coverage == 0:
			fmt.Fprintln(os.Stderr, "advisor: provide -budget-mb or -coverage")
			os.Exit(2)
		case !(*coverage > 0 && *coverage <= 1): // NaN fails too
			fmt.Fprintf(os.Stderr, "advisor: -coverage %v is not in (0,1]\n", *coverage)
			os.Exit(2)
		}
	}
	g, err := cli.LoadGraph(*file, ds, sc, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
		os.Exit(1)
	}

	entry := analytics.PropEntryBytes(a)
	prof := profile.New(g, entry)

	fmt.Printf("graph: %d vertices, %d edges; property array %.1fMB in %d regions\n",
		g.N, g.NumEdges(), float64(uint64(g.N)*entry)/(1<<20), prof.Regions)
	fmt.Printf("access skew: gini=%.3f (0=uniform, 1=concentrated)\n\n", prof.Gini())

	var plan profile.Plan
	if *budgetMB > 0 {
		plan = prof.PlanBudget(uint64(*budgetMB) << 20)
		fmt.Printf("plan for a %dMB huge page budget:\n", *budgetMB)
	} else {
		plan = prof.PlanCoverage(*coverage)
		fmt.Printf("plan for %.0f%% access coverage:\n", *coverage*100)
	}
	fmt.Printf("  regions: %d of %d (%.1fMB of huge pages)\n",
		len(plan.Regions), prof.Regions, float64(len(plan.Regions)*memsys.HugeSize)/(1<<20))
	fmt.Printf("  captures: %.1f%% of estimated property-array accesses\n\n", plan.Coverage*100)

	// Would DBG improve things? Re-plan on the reordered graph.
	dbg, _ := reorder.Apply(g, reorder.DBG, 1)
	dbgProf := profile.New(dbg, entry)
	var dbgPlan profile.Plan
	if *budgetMB > 0 {
		dbgPlan = dbgProf.PlanBudget(uint64(*budgetMB) << 20)
	} else {
		dbgPlan = dbgProf.PlanCoverage(*coverage)
	}
	fmt.Printf("with DBG preprocessing first:\n")
	fmt.Printf("  same budget would capture %.1f%% using %d regions (prefix-contiguous)\n\n",
		dbgPlan.Coverage*100, len(dbgPlan.Regions))

	fmt.Println("suggested calls (after mmap of the property array at `prop`):")
	if contiguousPrefix(plan.Regions) {
		fmt.Printf("  madvise(prop, %d, MADV_HUGEPAGE);\n", len(plan.Regions)*memsys.HugeSize)
	} else {
		for _, r := range plan.Regions {
			fmt.Printf("  madvise(prop + %#x, 0x200000, MADV_HUGEPAGE);\n", r*memsys.HugeSize)
		}
		fmt.Println("  // hot regions are scattered: run DBG reordering first to make")
		fmt.Println("  // the plan a single prefix, or use the calls above as-is")
	}
}

func contiguousPrefix(regions []int) bool {
	for i, r := range regions {
		if r != i {
			return false
		}
	}
	return len(regions) > 0
}
