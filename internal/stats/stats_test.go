package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "A", "B")
	tb.AddRow("x", "y")
	tb.AddRowf("long-cell", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "My Title") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "3.14") {
		t.Fatal("float formatting missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if n := len(tb.Rows()); n != 2 {
		t.Fatalf("Rows = %d", n)
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tb := NewTable("", "Col", "Other")
	tb.AddRow("aaaaaaa", "b")
	tb.AddRow("c", "d")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Second column must start at the same offset in both data rows.
	r1, r2 := lines[2], lines[3]
	if strings.Index(r1, "b") != strings.Index(r2, "d") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableExtraCells(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow("1", "2", "3") // wider than header must not panic
	if !strings.Contains(tb.String(), "3") {
		t.Fatal("extra cell dropped")
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty inputs must yield 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("median mutated input")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.1234) != "12.34" {
		t.Fatalf("Pct = %q", Pct(0.1234))
	}
	if math.Abs(0.1234*100-12.34) > 1e-9 {
		t.Fatal("sanity")
	}
}
