// Package graphmem is a simulation-based reproduction of "The
// Implications of Page Size Management on Graph Analytics" (IISWC 2022):
// a deterministic model of physical memory, virtual memory, TLBs, and
// Linux's transparent huge page policy, driven by instrumented graph
// analytics workloads.
//
// The root package carries only the benchmark suite (bench_test.go),
// which regenerates every table and figure of the paper's evaluation.
// The library lives under internal/ and cmd/ holds the executables;
// internal/core's godoc examples show the public API. See README.md and
// DESIGN.md.
package graphmem
