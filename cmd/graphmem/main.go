// Command graphmem runs one graph workload under one page-size
// management configuration on the simulated machine and prints the
// paper-style report: runtime (cycles) per phase, TLB miss rates, page
// fault and huge page statistics.
//
// Usage examples:
//
//	graphmem -app bfs -dataset kr25 -policy thp
//	graphmem -app sssp -dataset twit -policy selective -sel 0.2 -reorder dbg -pressure 0.5
//	graphmem -app pr -dataset web -policy 4k -frag 0.5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"graphmem/internal/analytics"
	"graphmem/internal/cli"
	"graphmem/internal/core"
)

func main() {
	app := flag.String("app", "bfs", "workload: bfs, sssp, pr, cc, or bc")
	dataset := flag.String("dataset", "kr25", "dataset: kr25, twit, web, wiki")
	file := flag.String("file", "", "load a GMG1 graph file instead of generating a dataset")
	scale := flag.String("scale", "full", "generated dataset scale: full, bench, test")
	policy := flag.String("policy", "4k", "page policy: 4k, thp, madvise-prop, selective, hugetlb, auto, ingens, hawkeye")
	sel := flag.Float64("sel", 0.2, "property-array fraction in (0,1] for -policy selective and hugetlb; WSS fraction of the -policy auto budget")
	method := flag.String("reorder", "orig", "vertex reordering: orig, dbg, sort, rand")
	order := flag.String("order", "natural", "allocation order: natural or prop-first")
	pressureGB := flag.Float64("pressure", -1, "memory pressure: free slack beyond WSS in paper-GB (negative disables memhog)")
	frag := flag.Float64("frag", 0, "fragmentation level of available memory, 0..1")
	aged := flag.Float64("aged", core.AgedFractionDefault, "ambient non-movable poison fraction when pressured")
	prIters := flag.Int("pr-iters", 5, "PageRank iteration cap")
	flag.Parse()

	spec, err := buildSpec(*app, *dataset, *file, *scale, *policy, *sel, *method, *order,
		*pressureGB, *frag, *aged, *prIters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphmem: %v\n", err)
		os.Exit(2)
	}

	r, err := core.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphmem: %v\n", err)
		os.Exit(1)
	}
	report(r)
}

func buildSpec(app, dataset, file, scale, policy string, sel float64,
	method, order string, pressureGB, frag, aged float64, prIters int) (core.RunSpec, error) {

	var spec core.RunSpec

	// The numeric flags are checked before any graph is generated or
	// loaded. A negative -pressure disables memhog.
	for _, f := range []struct {
		name string
		v    float64
	}{{"frag", frag}, {"aged", aged}} {
		if !(f.v >= 0 && f.v <= 1) {
			return spec, fmt.Errorf("-%s %v: want a fraction in [0,1]", f.name, f.v)
		}
	}
	if math.IsNaN(pressureGB) || math.IsInf(pressureGB, 0) {
		return spec, fmt.Errorf("-pressure %v: want a finite number of paper-GB", pressureGB)
	}
	if prIters < 1 {
		return spec, fmt.Errorf("-pr-iters %d: want at least 1 iteration", prIters)
	}

	var err error
	if spec.App, err = cli.ParseApp(app); err != nil {
		return spec, err
	}
	sc, err := cli.ParseScale(scale)
	if err != nil && file == "" {
		return spec, err
	}
	dsv, err := cli.ParseDataset(dataset)
	if err != nil && file == "" {
		return spec, err
	}
	if spec.Graph, err = cli.LoadGraph(file, dsv, sc, spec.App == analytics.SSSP); err != nil {
		return spec, err
	}
	if spec.App == analytics.SSSP && !spec.Graph.Weighted() {
		return spec, fmt.Errorf("sssp needs a weighted graph; %s has no weights", file)
	}
	if spec.Policy, err = cli.ParsePolicy(policy, sel, spec.App, spec.Graph); err != nil {
		return spec, err
	}
	if spec.Reorder, err = cli.ParseReorder(method); err != nil {
		return spec, err
	}
	if spec.Order, err = cli.ParseOrder(order); err != nil {
		return spec, err
	}

	if pressureGB < 0 && frag == 0 {
		spec.Env = core.FreshBoot()
	} else {
		delta := core.NoPressure
		if pressureGB >= 0 {
			// Interpret paper-GB against a 16GB nominal paper working
			// set (the exp package scales per-dataset via Table 2).
			wssSim := float64(analytics.WSSBytes(spec.App, spec.Graph))
			delta = int64(pressureGB * (1 << 30) * wssSim / (16 * (1 << 30)))
		}
		spec.Env = core.Environment{
			AgedFraction:  aged,
			PressureDelta: delta,
			FragLevel:     frag,
		}
	}

	spec.Run = analytics.DefaultRunOptions(spec.Graph)
	spec.Run.PRMaxIters = prIters
	return spec, nil
}

func report(r *core.RunResult) {
	fmt.Printf("graph: N=%d M=%d wss=%.1fMB machine=%.0fMB\n",
		r.Spec.Graph.N, r.Spec.Graph.NumEdges(),
		float64(r.WSSBytes)/(1<<20), float64(r.MemoryBytes)/(1<<20))
	fmt.Printf("policy=%s reorder=%s order=%s\n",
		r.Spec.Policy.Name, r.Spec.Reorder, r.Spec.Order)
	fmt.Println()
	fmt.Printf("total cycles:        %d\n", r.TotalCycles)
	fmt.Printf("  preprocessing:     %d\n", r.PreprocessCycles)
	fmt.Printf("  initialization:    %d\n", r.InitCycles)
	fmt.Printf("  kernel:            %d\n", r.KernelCycles)
	fmt.Println()
	k := r.Kernel
	fmt.Printf("kernel TLB:          dtlb-miss=%.2f%% stlb-miss=%.2f%% translation-share=%.1f%%\n",
		100*k.TLB.DTLBMissRate(), 100*k.TLB.STLBMissRate(), 100*k.TranslationShare())
	fmt.Printf("kernel cache:        l1-miss=%.2f%% llc-miss(DRAM)=%.2f%%\n",
		100*k.Cache.L1MissRate(), 100*k.Cache.LLCMissRate())
	fmt.Println()
	fmt.Printf("page faults:         4k=%d huge=%d fallbacks=%d\n",
		r.OS.Faults4K, r.OS.FaultsHuge, r.OS.HugeFallbacks)
	fmt.Printf("memory management:   compactions=%d migrated=%d promotions=%d demotions=%d\n",
		r.OS.CompactionRuns, r.OS.PagesMigrated, r.OS.Promotions, r.OS.Demotions)
	fmt.Printf("swap:                in=%d out=%d\n", r.OS.SwapIns, r.OS.SwapOuts)
	fmt.Printf("huge page usage:     total=%.1fMB prop=%.1fMB share-of-footprint=%.2f%%\n",
		float64(r.TotalHugeBytes)/(1<<20), float64(r.PropHugeBytes)/(1<<20),
		100*r.HugeShareOfFootprint())
	fmt.Println()
	fmt.Println("per-array (kernel+init):")
	for _, a := range r.Arrays {
		fmt.Printf("  %-10s accesses=%-12d l1tlb-misses=%-10d walks=%d\n",
			a.Name, a.Accesses, a.L1Misses, a.Walks)
	}
	switch {
	case r.Output.Hops != nil:
		fmt.Printf("\nresult: %d vertices reached\n", countReached(r.Output.Hops))
	case r.Output.Dist != nil:
		fmt.Printf("\nresult: %d vertices reached\n", countReached(r.Output.Dist))
	case r.Output.Ranks != nil:
		fmt.Printf("\nresult: PageRank converged after %d iterations\n", r.Output.Iterations)
	case r.Output.Centrality != nil:
		best, bestV := 0.0, 0
		for v, c := range r.Output.Centrality {
			if c > best {
				best, bestV = c, v
			}
		}
		fmt.Printf("\nresult: most-central vertex %d (score %.1f)\n", bestV, best)
	case r.Output.Labels != nil:
		comps := map[int64]struct{}{}
		for _, l := range r.Output.Labels {
			comps[l] = struct{}{}
		}
		fmt.Printf("\nresult: %d connected components\n", len(comps))
	}
}

func countReached(xs []int64) int {
	n := 0
	for _, x := range xs {
		if x >= 0 {
			n++
		}
	}
	return n
}
