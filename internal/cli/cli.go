// Package cli holds the small parsing helpers shared by the command-line
// tools: resolving dataset / scale / app / policy / reorder names to
// library values, with uniform error messages.
//
// It sits outside the simulation path — parsing happens once per
// process, before any machine is built — so it carries none of the
// determinism obligations simlint enforces on simulator packages, only
// the convention that unknown names list the known ones in the error.
package cli

import (
	"fmt"
	"os"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
)

// ParseScale resolves full|bench|test.
func ParseScale(name string) (gen.Scale, error) {
	switch name {
	case "full":
		return gen.ScaleFull, nil
	case "bench":
		return gen.ScaleBench, nil
	case "test":
		return gen.ScaleTest, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want full, bench, or test)", name)
}

// ParseApp resolves a workload name.
func ParseApp(name string) (analytics.App, error) {
	for _, a := range analytics.ExtendedApps {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("unknown app %q (want bfs, sssp, pr, cc, or bc)", name)
}

// ParseDataset resolves a dataset name.
func ParseDataset(name string) (gen.Dataset, error) {
	for _, d := range gen.AllDatasets {
		if string(d) == name {
			return d, nil
		}
	}
	return "", fmt.Errorf("unknown dataset %q (want kr25, twit, web, or wiki)", name)
}

// ParseReorder resolves a reordering method name.
func ParseReorder(name string) (reorder.Method, error) {
	switch name {
	case "orig":
		return reorder.Identity, nil
	case "dbg":
		return reorder.DBG, nil
	case "sort":
		return reorder.FullSort, nil
	case "rand":
		return reorder.Random, nil
	}
	return "", fmt.Errorf("unknown reorder method %q (want orig, dbg, sort, or rand)", name)
}

// ParseOrder resolves an allocation order name.
func ParseOrder(name string) (analytics.AllocOrder, error) {
	switch name {
	case "natural":
		return analytics.Natural, nil
	case "prop-first":
		return analytics.PropFirst, nil
	}
	return 0, fmt.Errorf("unknown allocation order %q (want natural or prop-first)", name)
}

// ParsePolicy resolves a policy name; sel (the -sel flag) parameterizes
// selective, hugetlb and auto. selective and hugetlb cover a fraction
// of the property array, so sel must lie in (0,1]; auto's budget is sel
// times the working set, so sel must be positive and the budget must
// fit in a uint64.
func ParsePolicy(name string, sel float64, app analytics.App, g *graph.Graph) (core.Policy, error) {
	switch name {
	case "4k":
		return core.Base4K(), nil
	case "thp":
		return core.THPAlways(), nil
	case "madvise-prop":
		return core.PerStructure("prop"), nil
	case "selective", "hugetlb":
		if !(sel > 0 && sel <= 1) {
			return core.Policy{}, fmt.Errorf("-sel %v out of (0,1] for policy %s", sel, name)
		}
		if name == "hugetlb" {
			return core.HugetlbSelective(sel), nil
		}
		return core.SelectiveTHP(sel), nil
	case "auto":
		// Go leaves converting a float outside uint64's range to the
		// platform, so such a budget is rejected, not converted.
		b := sel * float64(analytics.WSSBytes(app, g))
		if !(sel > 0 && b < 1<<64) {
			return core.Policy{}, fmt.Errorf("-sel %v: want a positive, finite WSS fraction for policy auto", sel)
		}
		budget := uint64(b)
		if budget < 2<<20 {
			budget = 2 << 20
		}
		return core.AutoTHP(budget), nil
	case "ingens":
		return core.IngensLike(), nil
	case "hawkeye":
		return core.HawkEyeLike(), nil
	}
	return core.Policy{}, fmt.Errorf(
		"unknown policy %q (want 4k, thp, madvise-prop, selective, hugetlb, auto, ingens, or hawkeye)", name)
}

// LoadGraph loads a GMG1 or edge-list file (by extension: .txt/.el =
// edge list, anything else = GMG1), or generates a dataset when path is
// empty.
func LoadGraph(path string, ds gen.Dataset, scale gen.Scale, weighted bool) (*graph.Graph, error) {
	if path == "" {
		return gen.Generate(ds, scale, weighted), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if n := len(path); n > 4 && (path[n-4:] == ".txt" || path[n-3:] == ".el") {
		return graph.ReadEdgeList(f)
	}
	return graph.Read(f)
}
