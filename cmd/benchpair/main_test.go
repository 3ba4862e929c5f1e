package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReport feeds report synthetic runs and reads back each row's change
// and verdict, a leg only the parent ran and one only the working tree
// ran among them.
func TestReport(t *testing.T) {
	// The parent's ns/op: median 8.9, quartiles [8.45, 9.5].
	base := []float64{8, 8.2, 8.4, 8.6, 8.8, 9, 9.2, 9.6, 10, 10.4}
	parent, change := &tree{name: "HEAD"}, &tree{name: "working tree"}
	for i, pv := range base {
		near := pv - 0.9 // wins, but by less than the parent's spread
		if i == 0 {
			near = pv + 0.5 // the one lost pair
		}
		parent.runs = append(parent.runs, map[string]float64{
			"BenchmarkNear ns/op":     pv,
			"BenchmarkFast ns/op":     pv,
			"BenchmarkSlow ns/op":     pv,
			"BenchmarkScan MB/s":      pv,
			"BenchmarkZero allocs/op": 0,
			"BenchmarkNew allocs/op":  0,
			"BenchmarkGone ns/op":     pv,
		})
		change.runs = append(change.runs, map[string]float64{
			"BenchmarkNear ns/op":     near,
			"BenchmarkFast ns/op":     pv - 3,
			"BenchmarkSlow ns/op":     pv + 3,
			"BenchmarkScan MB/s":      pv + 3,
			"BenchmarkZero allocs/op": 0,
			"BenchmarkNew allocs/op":  2,
			"BenchmarkAdded ns/op":    pv + 1,
		})
	}
	var out bytes.Buffer
	report(&out, parent, change, len(base))
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]+" "+f[1]] = line
	}
	for key, want := range map[string][]string{
		"BenchmarkNear ns/op":     {"-7.9%", "won 9/10", "unresolved"},
		"BenchmarkFast ns/op":     {"-33.7%", "won 10/10", "better"},
		"BenchmarkSlow ns/op":     {"+33.7%", "won 0/10", "worse"},
		"BenchmarkScan MB/s":      {"+33.7%", "won 10/10", "better"},
		"BenchmarkZero allocs/op": {"+0.0%", "won 0/10", "unresolved"},
		"BenchmarkNew allocs/op":  {"n/a", "won 0/10", "worse"},
		// Only one side ran these: that side's median and quartiles, no
		// pairs and no verdict.
		"BenchmarkGone ns/op":  {"8.9 [8.45, 9.5]", " - ", "n/a"},
		"BenchmarkAdded ns/op": {" - ", "9.9 [9.45, 10.5]", "n/a"},
	} {
		row, ok := rows[key]
		if !ok {
			t.Fatalf("no row for %s in\n%s", key, out.String())
		}
		for _, w := range want {
			if !strings.Contains(row, w) {
				t.Errorf("%s: row %q lacks %q", key, row, w)
			}
		}
		if strings.Contains(row, "NaN") {
			t.Errorf("%s: row %q prints NaN", key, row)
		}
	}
	// Two pairs resolve nothing, however clear.
	out.Reset()
	report(&out, parent, change, 2)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.HasSuffix(line, "unresolved") && !strings.HasSuffix(line, "n/a") {
			t.Errorf("two pairs: %q", line)
		}
	}
}
