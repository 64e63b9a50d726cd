package stats

import "fmt"

// Footprint is the simulator-side memory introspection report: how many
// host bytes each subsystem spends representing the simulated machine.
// expdriver -footprint prints it, and the fullscale footprint test
// bounds its BytesPerSimGB.
//
// core.Footprint appends the rows in a fixed subsystem order, each the
// size of one subsystem's state walk, so the rendered table is
// deterministic and the total is the payload of a checkpoint.
type Footprint struct {
	// SimulatedBytes is the size of the simulated physical node.
	SimulatedBytes uint64
	Rows           []FootprintRow
}

// FootprintRow is one subsystem's cost in host bytes.
type FootprintRow struct {
	Subsystem string
	Bytes     uint64
}

// Add appends one subsystem row.
func (f *Footprint) Add(subsystem string, bytes uint64) {
	f.Rows = append(f.Rows, FootprintRow{Subsystem: subsystem, Bytes: bytes})
}

// TotalBytes sums the rows.
func (f *Footprint) TotalBytes() uint64 {
	var t uint64
	for _, r := range f.Rows {
		t += r.Bytes
	}
	return t
}

// BytesPerSimGB returns simulator bytes per simulated GiB.
func (f *Footprint) BytesPerSimGB() float64 {
	if f.SimulatedBytes == 0 {
		return 0
	}
	return float64(f.TotalBytes()) / (float64(f.SimulatedBytes) / float64(1<<30))
}

// Table renders the report as an aligned text table with per-subsystem
// rows and a totals row.
func (f *Footprint) Table() *Table {
	t := NewTable(
		fmt.Sprintf("simulator footprint (%s simulated)", fmtBytes(f.SimulatedBytes)),
		"subsystem", "bytes")
	for _, r := range f.Rows {
		t.AddRow(r.Subsystem, fmtBytes(r.Bytes))
	}
	t.AddRow("total", fmtBytes(f.TotalBytes()))
	return t
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
