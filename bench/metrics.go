package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"graphmem/internal/core"
	"graphmem/internal/stats"
)

// metricDef is one entry of the manifest that BENCHMARK.json mirrors
// (TestManifestMatchesBenchmarkJSON). Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host costs a user of graphmem waits on or pays for.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cell_s_p50", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the traced run's metrics: host time per layer (summed
// span self time per round) and the exact simulated counters of one
// round. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"gen.s", "s", "lower", 0},
	{"gen.medges_per_s", "Medges/s", "higher", 0},
	{"reorder.dbg_s", "s", "lower", 0},
	{"core.prepare_s", "s", "lower", 0},
	{"core.prepare_gb_per_s", "GiB/s", "higher", 0},
	{"core.fork_ms", "ms", "lower", 0},
	{"core.shard_bringup_s", "s", "lower", 0},
	{"core.run_s", "s", "lower", 0},
	{"analytics.kernel_s", "s", "lower", 0},
	{"machine.host_ns_per_access", "ns", "lower", 0},
	{"machine.accesses", "count", "lower", 0},
	{"machine.init_cycles", "cycles", "lower", 0},
	{"machine.kernel_cycles", "cycles", "lower", 0},
	{"machine.translation_cycles", "cycles", "lower", 0},
	{"machine.data_cycles", "cycles", "lower", 0},
	{"machine.fault_cycles", "cycles", "lower", 0},
	{"tlb.lookups", "count", "lower", 0},
	{"tlb.l1_misses", "count", "lower", 0},
	{"tlb.stlb_misses", "count", "lower", 0},
	{"tlb.walk_cycles", "cycles", "lower", 0},
	{"tlb.stlb_miss_ratio", "ratio", "lower", 0},
	{"cache.accesses", "count", "lower", 0},
	{"cache.l1_misses", "count", "lower", 0},
	{"cache.llc_misses", "count", "lower", 0},
	{"oskernel.faults_4k", "count", "lower", 0},
	{"oskernel.faults_huge", "count", "higher", 0},
	{"oskernel.huge_fallbacks", "count", "lower", 0},
	{"oskernel.compaction_runs", "count", "lower", 0},
	{"oskernel.pages_migrated", "count", "lower", 0},
	{"oskernel.promotions", "count", "higher", 0},
	{"oskernel.swap_outs", "count", "lower", 0},
	{"oskernel.huge_fault_ratio", "ratio", "higher", 0},
	{"memsys.frame_bytes", "bytes", "lower", 0},
	{"vm.table_bytes", "bytes", "lower", 0},
	{"workload.memhog_bytes", "bytes", "lower", 0},
	{"footprint.bytes_per_sim_gb", "bytes/GiB", "lower", 0},
	{"ckpt.image_bytes", "bytes", "lower", 0},
	{"ckpt.save_s", "s", "lower", 0},
	{"ckpt.save_gb_per_s", "GiB/s", "higher", 0},
	{"ckpt.load_s", "s", "lower", 0},
	{"ckpt.load_gb_per_s", "GiB/s", "higher", 0},
	{"ckpt.warm_s", "s", "lower", 0},
	{"exp.cells", "count", "lower", 0},
	{"exp.runs", "count", "lower", 0},
	{"exp.first_cell_s", "s", "lower", 0},
	{"exp.render_s", "s", "lower", 0},
	{"exp.cell_s_p90", "s", "lower", 0},
	{"sched.busy_frac", "ratio", "higher", 0},
	{"sched.tail_s", "s", "lower", 0},
	{"bench.verify_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

func unitOf(name string) string {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

const gib = 1 << 30

// addRun adds one Run's simulated counters to c. Kernel-phase counters
// come from RunResult.Kernel, so init-phase faulting never mixes in;
// the OS counters cover the whole run.
func addRun(c map[string]float64, r *core.RunResult) {
	k := r.Kernel
	for name, v := range map[string]uint64{
		"machine.accesses":           k.Accesses,
		"machine.init_cycles":        r.InitCycles,
		"machine.kernel_cycles":      r.KernelCycles,
		"machine.translation_cycles": k.TranslationCycles,
		"machine.data_cycles":        k.DataCycles,
		"machine.fault_cycles":       k.FaultCycles,
		"tlb.lookups":                k.TLB.Lookups,
		"tlb.l1_misses":              k.TLB.L1Misses,
		"tlb.stlb_misses":            k.TLB.STLBMisses,
		"tlb.walk_cycles":            k.TLB.WalkCycles,
		"cache.accesses":             k.Cache.Accesses,
		"cache.l1_misses":            k.Cache.L1Misses,
		"cache.llc_misses":           k.Cache.LLCMiss,
		"oskernel.faults_4k":         r.OS.Faults4K,
		"oskernel.faults_huge":       r.OS.FaultsHuge,
		"oskernel.huge_fallbacks":    r.OS.HugeFallbacks,
		"oskernel.compaction_runs":   r.OS.CompactionRuns,
		"oskernel.pages_migrated":    r.OS.PagesMigrated,
		"oskernel.promotions":        r.OS.Promotions,
		"oskernel.swap_outs":         r.OS.SwapOuts,
	} {
		c[name] += float64(v)
	}
}

// addFootprint keeps the breakdown of the largest staged machine: the
// one that sets the simulator's share of peak host memory.
func addFootprint(c map[string]float64, fp stats.Footprint) {
	total := float64(fp.TotalBytes())
	if total <= c["footprint.total_bytes"] {
		return
	}
	c["footprint.total_bytes"] = total
	c["footprint.bytes_per_sim_gb"] = fp.BytesPerSimGB()
	for _, row := range fp.Rows {
		switch row.Subsystem {
		case "memsys/frames":
			c["memsys.frame_bytes"] = float64(row.Bytes)
		case "vm/tables":
			c["vm.table_bytes"] = float64(row.Bytes)
		case "workload/memhog":
			c["workload.memhog_bytes"] = float64(row.Bytes)
		}
	}
}

// endToEndMetrics reduces the rounds of a run to the manifest's
// end-to-end metrics: medians over rounds, percentiles over every cell.
func endToEndMetrics(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":     percentile(r.setups, 0.5),
		"wall_s":      percentile(r.walls, 0.5),
		"cell_s_p50":  percentile(r.cells, 0.5),
		"peak_rss_mb": r.peakRSSMiB,
	}
}

// simulatedMetrics are the per-layer metrics that are exact simulated
// counts of round one. They need no tracing, so untraced runs print
// them too, and a change that only speeds up the simulator must leave
// every one of them unchanged.
func simulatedMetrics(r *result) map[string]float64 {
	m := make(map[string]float64)
	for _, d := range perLayer {
		if v, ok := r.counters[d.Name]; ok {
			m[d.Name] = v
		}
	}
	if _, ok := r.counters["tlb.lookups"]; ok {
		m["tlb.stlb_miss_ratio"] = ratio(r.counters["tlb.stlb_misses"], r.counters["tlb.lookups"])
		huge := r.counters["oskernel.faults_huge"]
		m["oskernel.huge_fault_ratio"] = ratio(huge, huge+r.counters["oskernel.huge_fallbacks"])
	}
	return m
}

// layerMetrics derives every per-layer metric from the recorded spans
// and the round-one counters. Host times are per set-up for the set-up
// layers (gen, reorder) and per round for the rest.
func layerMetrics(r *result) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for name, v := range simulatedMetrics(r) {
		m[name] = v
	}
	rounds, setups := float64(r.rounds), float64(len(r.setups))
	spans := r.tr.spans
	self := make(map[string]float64)
	for i, s := range selfTimes(spans) {
		self[spans[i].Name] += s
	}
	perRound := func(name string) float64 { return self[name] / rounds }
	perSetup := func(name string) float64 { return self[name] / setups }
	for name, v := range r.timings {
		m[name] = v / rounds
	}

	// One standalone Fork per staged cell measures what a fork of that
	// node costs; every Run forks max(shards, 1) times (its own fork
	// plus shards-1 shard bring-ups), which kernel_s takes back out.
	forkSum, forkN := map[string]float64{}, map[string]float64{}
	var forks []float64
	for _, s := range spans {
		if s.Name == "core.fork" {
			forkSum[s.Cell] += s.End - s.Start
			forkN[s.Cell]++
			forks = append(forks, s.End-s.Start)
		}
	}
	var bringup, runForks float64
	for _, s := range spans {
		if s.Name != "core.run" || forkN[s.Cell] == 0 {
			continue
		}
		fork := forkSum[s.Cell] / forkN[s.Cell]
		shards := float64(max(r.shards[s.Cell], 1))
		bringup += (shards - 1) * fork / rounds
		runForks += shards * fork / rounds
	}

	m["gen.s"] = perSetup("gen.kronecker") + perSetup("gen.powerlaw")
	m["gen.medges_per_s"] = ratio(r.counters["gen.edges"]/1e6, m["gen.s"])
	m["reorder.dbg_s"] = perSetup("reorder.apply")
	m["core.prepare_s"] = perRound("core.prepare")
	m["core.prepare_gb_per_s"] = ratio(r.counters["core.staged_bytes"]/gib, m["core.prepare_s"])
	m["core.fork_ms"] = percentile(forks, 0.5) * 1e3
	m["core.shard_bringup_s"] = bringup
	m["core.run_s"] = perRound("core.run")
	m["analytics.kernel_s"] = m["core.run_s"] - runForks
	m["machine.host_ns_per_access"] = ratio(m["analytics.kernel_s"]*1e9, m["machine.accesses"])
	m["ckpt.save_s"] = perRound("ckpt.save")
	m["ckpt.save_gb_per_s"] = ratio(m["ckpt.image_bytes"]/gib, m["ckpt.save_s"])
	m["ckpt.load_s"] = perRound("ckpt.load")
	m["ckpt.load_gb_per_s"] = ratio(m["ckpt.image_bytes"]/gib, m["ckpt.load_s"])
	m["exp.render_s"] = perRound("exp.render")
	m["exp.cell_s_p90"] = percentile(r.cells, 0.9)
	m["bench.verify_s"] = perRound("bench.verify")
	var wall float64
	for _, w := range r.walls {
		wall += w
	}
	m["trace.overhead_frac"] = ratio(r.tr.cost.Seconds(), wall)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the closest ranks (the
// "inclusive" method), so it never extrapolates past the samples; p=0.5
// is the median.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
