package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Verdicts compare reports for one (workload, end-to-end metric) pair.
const (
	regressed  = "regressed"  // the change's median is worse by more than the bound
	improved   = "improved"   // ≥9/10 pair wins and a median gap wider than the parent's IQR
	unresolved = "unresolved" // the spread is wider than the bound, so no claim either way
	unchanged  = "unchanged"
)

// compareMain implements `bench compare parent.jsonl change.jsonl`: the
// two files hold -out records of the parent and the change, pair i of
// a workload being the i-th record of each. It exits 1 when any pair
// regressed and 2 when it refuses a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err == nil {
		var change []record
		if change, err = readRecords(args[1]); err == nil {
			var vs []verdict
			if vs, err = compare(parent, change); err == nil {
				printVerdicts(stdout, vs)
				for _, v := range vs {
					if v.Verdict == regressed {
						return 1
					}
				}
				return 0
			}
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return recs, nil
}

// verdict is one (workload, metric) comparison.
type verdict struct {
	Workload, Metric string
	Parent, Change   quartiles
	Wins, Pairs      int
	Verdict          string
}

type quartiles struct{ Q1, Median, Q3 float64 }

// compare judges every end-to-end metric of every workload both sides
// ran untraced. It refuses when the runs come from different hosts: a
// cross-host difference is not a regression or a gain.
func compare(parent, change []record) ([]verdict, error) {
	h := parent[0].Host
	for _, rec := range slices.Concat(parent, change) {
		if rec.Host != h {
			return nil, fmt.Errorf("refusing a verdict: host fingerprints differ (%+v vs %+v)", h, rec.Host)
		}
	}
	var vs []verdict
	for _, w := range workloadNames() {
		p, c := untraced(parent, w), untraced(change, w)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		// A gain does not count when more cells fail than at the parent.
		moreFailures := failures(c) > failures(p)
		for _, d := range endToEnd {
			v := judge(d, values(p, d.Name), values(c, d.Name), moreFailures)
			v.Workload = w
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return nil, errors.New("no workload was run untraced on both sides")
	}
	return vs, nil
}

func untraced(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func failures(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// judge applies the comparison rules to one metric's parent and change
// samples, pair i being (p[i], c[i]).
func judge(d metricDef, p, c []float64, moreFailures bool) verdict {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{Metric: d.Name, Parent: quartilesOf(p), Change: quartilesOf(c), Pairs: min(len(p), len(c))}
	for i := 0; i < v.Pairs; i++ {
		if better(c[i], p[i]) {
			v.Wins++
		}
	}
	pm, cm := v.Parent.Median, v.Change.Median
	worse := (cm - pm) / math.Abs(pm)
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse > d.Bound:
		v.Verdict = regressed
	case !moreFailures && v.Wins*10 >= 9*v.Pairs && better(cm, pm) && math.Abs(cm-pm) > v.Parent.Q3-v.Parent.Q1:
		v.Verdict = improved
	case (v.Parent.spread() > d.Bound || v.Change.spread() > d.Bound) && !allBetter:
		v.Verdict = unresolved
	default:
		v.Verdict = unchanged
	}
	return v
}

// spread is the interquartile distance as a share of the median.
func (q quartiles) spread() float64 { return (q.Q3 - q.Q1) / math.Abs(q.Median) }

// quartilesOf computes the three cut points the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method), so spreads read the same as in any Python tooling.
func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartiles{cut(1), cut(2), cut(3)}
}

func printVerdicts(w io.Writer, vs []verdict) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
			v.Workload, v.Metric,
			v.Parent.Median, v.Parent.Q1, v.Parent.Q3,
			v.Change.Median, v.Change.Q1, v.Change.Q3,
			v.Wins, v.Pairs, v.Verdict)
	}
	tw.Flush()
}
