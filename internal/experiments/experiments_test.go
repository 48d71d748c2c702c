package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExperimentRunsQuick executes every registered experiment at quick
// size and sanity-checks their tables.
func TestEveryExperimentRunsQuick(t *testing.T) {
	p := Params{Seed: 1, Quick: true}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Registry()[id](p)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != id {
				t.Fatalf("table ID %q != %q", tbl.ID, id)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if len(tbl.Header) == 0 || tbl.Title == "" {
				t.Fatal("missing header/title")
			}
			out := tbl.String()
			if !strings.Contains(out, id) {
				t.Fatal("String() must include the experiment ID")
			}
		})
	}
}

func TestRegistryCoversEveryPaperExhibit(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "table1", "fig5", "fig6", "fig9", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "table2", "fig18",
		"fig19", "fig20", "fig21",
		"ablation-delta", "ablation-compression", "ablation-nrun",
		"ablation-colocation", "faults", "recovery", "failover", "serve",
		"obs", "quant", "durability",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// TestFig9ShapeHolds: the headline Fig 9 shape — +Conv5 minimizes training
// time and traffic surges at +FC — must hold at full size.
func TestFig9ShapeHolds(t *testing.T) {
	tbl, err := Fig9(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: None..+FC; col 3 = train time, col 1+2 = traffic.
	n := len(tbl.Rows)
	conv5 := n - 2
	for r := 0; r < n; r++ {
		if r != conv5 && cell(t, tbl, r, 3) <= cell(t, tbl, conv5, 3) {
			t.Fatalf("cut %s beats +Conv5", tbl.Rows[r][0])
		}
	}
	fcTraffic := cell(t, tbl, n-1, 1) + cell(t, tbl, n-1, 2)
	c5Traffic := cell(t, tbl, conv5, 1) + cell(t, tbl, conv5, 2)
	if fcTraffic <= c5Traffic {
		t.Fatal("+FC traffic must surge past +Conv5")
	}
}

// TestFig17PipeliningKeepsAccuracy: the §6.3 claim at full size — Nrun 1–3
// train to within 3 points of each other and Nrun=4 is the lowest. Quick
// size is too small for the claim to hold, so this runs the full exhibit.
func TestFig17PipeliningKeepsAccuracy(t *testing.T) {
	tbl, err := Fig17(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cell(t, tbl, 0, 1), cell(t, tbl, 0, 1)
	for r := 1; r < 3; r++ {
		lo, hi = math.Min(lo, cell(t, tbl, r, 1)), math.Max(hi, cell(t, tbl, r, 1))
	}
	if hi-lo > 3 {
		t.Fatalf("Nrun 1–3 top-1 spans %.2f–%.2f, want within 3 points", lo, hi)
	}
	if four := cell(t, tbl, 3, 1); four >= lo {
		t.Fatalf("Nrun=4 top-1 %.2f must be the lowest (Nrun 1–3 min %.2f)", four, lo)
	}
}

// TestFig13LinearScaling: NDPipe inference throughput must scale linearly
// with store count.
func TestFig13LinearScaling(t *testing.T) {
	tbl, err := Fig13(Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// First model block: stores 1, 4, 8 → KIPS ratios 1:4:8.
	base := cell(t, tbl, 0, 2)
	if r := cell(t, tbl, 1, 2) / base; r < 3.9 || r > 4.1 {
		t.Fatalf("4-store scaling %.2f, want 4", r)
	}
	if r := cell(t, tbl, 2, 2) / base; r < 7.9 || r > 8.1 {
		t.Fatalf("8-store scaling %.2f, want 8", r)
	}
}

// TestFig18RatioShrinksWithBandwidth: NDPipe's efficiency advantage over
// SRV-C is largest at 1 Gbps and smallest at 40 Gbps.
func TestFig18RatioShrinksWithBandwidth(t *testing.T) {
	tbl, err := Fig18(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 4) // ResNet50 @1Gbps ratio
	last := cell(t, tbl, 3, 4)  // ResNet50 @40Gbps ratio
	if first <= last {
		t.Fatalf("advantage should shrink with bandwidth: %.2f → %.2f", first, last)
	}
	if last < 1.0 {
		t.Fatalf("NDPipe should stay ahead at 40 Gbps: %.2f", last)
	}
}

// TestFig19ViTOOM: the ViT rows must include OOM markers at large batches.
func TestFig19ViTOOM(t *testing.T) {
	tbl, err := Fig19(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	oom := 0
	for _, r := range tbl.Rows {
		if r[0] == "ViT" && r[2] == "OOM" {
			oom++
		}
	}
	if oom == 0 {
		t.Fatal("ViT must OOM at large batch sizes (Fig 19)")
	}
	for _, r := range tbl.Rows {
		if r[0] == "ResNet50" && r[2] == "OOM" {
			t.Fatal("ResNet50 must not OOM")
		}
	}
}

// TestFig21NDPipeCheaperThanSRVC at its best point (Fig 21a).
func TestFig21NDPipeCheaperThanSRVC(t *testing.T) {
	tbl, err := Fig21(Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var bestND, srv float64
	bestND = 1e18
	for _, r := range tbl.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch r[0] {
		case "NDPipe":
			if v < bestND {
				bestND = v
			}
		case "SRV-C":
			srv = v
		}
	}
	if srv == 0 || bestND >= srv {
		t.Fatalf("NDPipe best cost %.2f should undercut SRV-C %.2f", bestND, srv)
	}
}

func TestTableAddFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tbl.Add(1.23456, "str")
	if tbl.Rows[0][0] != "1.23" || tbl.Rows[0][1] != "str" {
		t.Fatalf("Add formatting: %v", tbl.Rows[0])
	}
}
