package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quick is a small configuration so the full registry stays fast in tests.
var quick = Config{Sizes: []int{16, 48}, Families: []string{"path", "random"}, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs %d", len(reg), len(IDs()))
	}
	for _, id := range IDs() {
		if reg[id] == nil {
			t.Fatalf("experiment %s missing", id)
		}
	}
}

// Every experiment must run end to end and produce non-empty tables whose
// rows match their headers.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables := Registry()[id](quick)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("table %q: row width %d vs %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
				out := tab.String()
				if !strings.Contains(out, tab.Columns[0]) {
					t.Fatalf("render misses header: %q", out)
				}
			}
		})
	}
}

// The experiments embed their own verification (they panic on failure);
// spot-check key cells instead of re-deriving them.
func TestE1Bounds(t *testing.T) {
	tables := E1Trivial(quick)
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E1 row not verified: %v", row)
		}
	}
}

func TestE2Monotone(t *testing.T) {
	tables := E2LowerBound(quick)
	served := -1
	for _, row := range tables[0].Rows {
		if row[1] != row[2] {
			t.Fatalf("E2a served != bound in %v", row)
		}
		var cur int
		if _, err := sscan(row[1], &cur); err != nil {
			t.Fatal(err)
		}
		if cur < served {
			t.Fatal("E2a served not monotone in m")
		}
		served = cur
	}
}

func TestE4WithinSchedule(t *testing.T) {
	tables := E4ConstantAdvice(quick)
	for _, row := range tables[0].Rows {
		var maxAdvice, m int
		if _, err := sscan(row[2], &maxAdvice); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &m); err != nil {
			t.Fatal(err)
		}
		if maxAdvice > m {
			t.Fatalf("E4 max advice exceeds 12: %v", row)
		}
		if row[len(row)-1] != "yes" {
			t.Fatalf("E4 row not verified: %v", row)
		}
	}
}

// TestE6E9Lemmas reads the decomposition tables back: E6's ratio
// columns stay inside Lemma 1 (active |F| < 2^i) and Lemma 2 (selected
// rank ≤ |F|) with at most ⌈log n⌉ phases, and every E9 phase has at
// most n/2^(i-1) fragments while the selected edges sum to n−1.
func TestE6E9Lemmas(t *testing.T) {
	e6 := E6Decomposition(quick)[0]
	if len(e6.Rows) != len(quick.Families)*len(quick.Sizes) {
		t.Fatalf("E6 has %d rows, want one per (family, n)", len(e6.Rows))
	}
	for _, row := range e6.Rows {
		var phases, logN int
		sscan(row[2], &phases)
		sscan(row[3], &logN)
		if phases > logN {
			t.Fatalf("E6 %v: %d phases > ⌈log n⌉ = %d", row, phases, logN)
		}
		sizeFrac, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		rankFrac, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if sizeFrac >= 1 || rankFrac > 1 || sizeFrac <= 0 || rankFrac <= 0 {
			t.Fatalf("E6 %v: ratio columns %.2f / %.2f outside (0, 1) / (0, 1]", row, sizeFrac, rankFrac)
		}
	}
	e9 := E9PhaseDynamics(quick)
	if len(e9) != len(quick.Families) {
		t.Fatalf("E9 has %d tables, want one per family", len(e9))
	}
	for _, tab := range e9 {
		var n int
		if _, err := fmt.Sscanf(tab.Title[strings.Index(tab.Title, "(n="):], "(n=%d)", &n); err != nil {
			t.Fatalf("E9 title %q: %v", tab.Title, err)
		}
		selected := 0
		for _, row := range tab.Rows {
			var frags, bound, sel int
			sscan(row[1], &frags)
			sscan(row[2], &bound)
			sscan(row[6], &sel)
			if frags > bound {
				t.Fatalf("%s: phase %s has %d fragments > n/2^(i-1) = %d", tab.Title, row[0], frags, bound)
			}
			selected += sel
		}
		if selected != n-1 {
			t.Fatalf("%s: selected edges sum to %d, want n-1 = %d", tab.Title, selected, n-1)
		}
	}
}

func sscan(s string, out *int) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}
