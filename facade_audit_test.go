package mstadvice_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"mstadvice"
)

// facadeFor maps every internal entry-point symbol named in README's
// paper → code map onto the facade export that reaches it. The values
// are real references, so a facade symbol that disappears breaks the
// compile, and TestFacadeCoversPaperMap breaks when a map row names a
// symbol missing here — together they pin the README against facade
// drift in both directions.
var facadeFor = map[string]any{
	"trivial.Scheme.Advise":           mstadvice.Trivial,
	"lowerbound.BuildGn":              mstadvice.BuildGn,
	"lowerbound.NewFamily":            mstadvice.NewLowerBoundFamily,
	"oneround.Scheme.Advise":          mstadvice.OneRound,
	"core.BuildAdvice":                mstadvice.MSTProblem().Encode,
	"core.Scheme.NewNode":             mstadvice.ConstantAdvice,
	"core.NewSchedule":                mstadvice.NewSchedule,
	"core.BuildAdviceDetailOpt":       mstadvice.MSTProblem().Encode,
	"boruvka.Decompose":               mstadvice.Decompose,
	"boruvka.Decomposition.Fragments": (*mstadvice.Decomposition).Fragments,
	"sim.Network.Run":                 mstadvice.Run,
	"sim.Network.RunAsync":            mstadvice.RunOptions{Async: true},
	"sim.Options":                     mstadvice.RunOptions{},
	"advice.Run":                      mstadvice.Run,
	"problem.Register":                mstadvice.RegisterProblem,
	"problem.BySchemeName":            mstadvice.SchemeByName,
	"mstp.Problem.Encode":             mstadvice.MSTProblem,
	"topo.Problem.Encode":             mstadvice.TopologyRecognition,
	"topo.Flood.Advise":               mstadvice.TopoFlood,
	"topo.NewFamily":                  mstadvice.NewTopoLowerBoundFamily,
	"boruvka.Tower":                   mstadvice.Tower{},
	"hier.Encode":                     mstadvice.HierScheme,
	"hier.Scheme.NewNode":             mstadvice.HierScheme,
	"hier.BuildTiers":                 mstadvice.BuildAdviceTiers,
	"service.Service.TierSnapshot":    (*mstadvice.AdviceService).TierSnapshot,
	"replica.Log.Attach":              (*mstadvice.EpochLog).Attach,
	"replica.Replica.Run":             (*mstadvice.Replica).Run,
	"replica.Client.Advice":           (*mstadvice.ReplicaClient).Advice,
	"chaos.Proxy":                     mstadvice.NewChaosProxy,
	"chaos.Schedule":                  mstadvice.ChaosSchedule{},
	"gen.BuildSeeded":                 mstadvice.GenSeeded,
	"graph.FromEdgeList":              mstadvice.GenSeeded, // the seeded build path constructs through it
	"par.Steal":                       mstadvice.Decompose, // the phase kernel's min-edge scans run on it
}

// symbolRe matches backtick-quoted internal symbols of the form
// pkg.Symbol or pkg.Symbol{...} inside a map row. Package paths
// (`internal/...`) and bare scheme names (`Trivial`) don't match.
var symbolRe = regexp.MustCompile("`([a-z][a-z0-9]*\\.[A-Z][A-Za-z0-9.]*)[^`]*`")

// TestFacadeCoversPaperMap parses README's paper → code map and
// requires every internal entry-point symbol a row names to be listed
// in facadeFor, i.e. reachable through the public facade. Adding a map
// row with a new entry point forces a facade export (or an explicit
// mapping to an existing one) in the same change.
func TestFacadeCoversPaperMap(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := paperMapRows(t, string(readme))
	checked := 0
	for _, row := range rows {
		cells := strings.Split(row, "|")
		if len(cells) < 5 {
			t.Fatalf("malformed map row: %s", row)
		}
		// Column 2 (package) and column 3 (entry point) both name code;
		// the "pinned by" column names tests, not facade symbols.
		for _, cell := range cells[2:4] {
			for _, m := range symbolRe.FindAllStringSubmatch(cell, -1) {
				sym := m[1]
				checked++
				if _, ok := facadeFor[sym]; !ok {
					t.Errorf("README map names %s but facade_audit_test.go has no facade mapping for it", sym)
				}
			}
		}
	}
	if checked < len(facadeFor) {
		t.Errorf("README map names %d symbols but facadeFor maps %d — stale entries?", checked, len(facadeFor))
	}
}

// paperMapRows returns the body rows of the paper → code map table.
func paperMapRows(t *testing.T, readme string) []string {
	t.Helper()
	idx := strings.Index(readme, "| Paper | Package | Entry point | Pinned by |")
	if idx < 0 {
		t.Fatal("README.md no longer contains the paper → code map header")
	}
	var rows []string
	for _, line := range strings.Split(readme[idx:], "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, line)
	}
	if len(rows) < 8 {
		t.Fatalf("paper → code map has only %d rows", len(rows))
	}
	return rows
}
