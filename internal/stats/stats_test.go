package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Fatal("speedup wrong")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v", got)
	}
	if Geomean(nil) != 0 || Geomean([]float64{1, -1}) != 0 {
		t.Fatal("degenerate inputs not handled")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("minmax = %v,%v", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatal("empty minmax")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Fatal("F wrong")
	}
	if Pct(0.5) != "50.0%" {
		t.Fatal("Pct wrong")
	}
	if MB(1<<20) != "1.0MB" {
		t.Fatal("MB wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.AddRow("x", "y")
	tb.AddRow("longer") // short row padded
	tb.Note = "hello"
	s := tb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "longer", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("text rendering missing %q in:\n%s", want, s)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "### demo") {
		t.Fatalf("markdown rendering wrong:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv rendering wrong:\n%s", csv)
	}
}

// TestQuickGeomeanBounds: the geometric mean of positive values lies
// within [min, max].
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		g := Geomean(xs)
		lo, hi := MinMax(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFootprintTable pins the footprint report's shape: one
// (subsystem, bytes) row per Add in call order, then a total row that
// sums them.
func TestFootprintTable(t *testing.T) {
	f := Footprint{SimulatedBytes: 128 << 30}
	f.Add("memsys/frames", 256<<20)
	f.Add("vm/tables", 1536)
	f.Add("workload/memhog", 8)
	if got, want := f.TotalBytes(), uint64(256<<20+1536+8); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	if got, want := f.BytesPerSimGB(), float64(256<<20+1536+8)/128; got != want {
		t.Fatalf("BytesPerSimGB = %v, want %v", got, want)
	}
	tb := f.Table()
	if want := "simulator footprint (128.00 GiB simulated)"; tb.Title != want {
		t.Fatalf("title = %q, want %q", tb.Title, want)
	}
	want := "subsystem,bytes\n" +
		"memsys/frames,256.00 MiB\n" +
		"vm/tables,1.50 KiB\n" +
		"workload/memhog,8 B\n" +
		"total,256.00 MiB\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("table =\n%s\nwant\n%s", got, want)
	}
	if (&Footprint{}).BytesPerSimGB() != 0 {
		t.Fatal("an empty node must report 0 bytes per simulated GiB")
	}
}
