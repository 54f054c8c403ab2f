package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func findRow(t *Table, key string) []string {
	for _, row := range t.Rows {
		if strings.Contains(strings.Join(row, " "), key) {
			return row
		}
	}
	return nil
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	out := tab.String()
	for _, want := range []string{"== EX: demo ==", "a  bb", "1  2", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE1(t *testing.T) {
	tab := E1Ontology()
	total := findRow(tab, "TOTAL")
	if total == nil {
		t.Fatal("no TOTAL row")
	}
	if total[1] == "0" {
		t.Errorf("no classes counted: %v", total)
	}
	// consistency note must report 0 violations
	joined := strings.Join(tab.Notes, " ")
	if !strings.Contains(joined, "violations: 0") {
		t.Errorf("ontology not clean: %v", tab.Notes)
	}
}

func TestE2AllListingsPass(t *testing.T) {
	tab := E2Listings()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("listing check failed: %v", row)
		}
	}
}

func TestE3AllChecksPass(t *testing.T) {
	tab := E3Topology()
	for _, row := range tab.Rows {
		if row[1] != "yes" {
			t.Errorf("topology check failed: %v", row)
		}
	}
}

func TestE4AllChecksPass(t *testing.T) {
	tab := E4GMLRoundTrip()
	for _, row := range tab.Rows {
		if row[1] != "yes" {
			t.Errorf("GML check failed: %v", row)
		}
	}
}

func TestE5Matrix(t *testing.T) {
	tab := E5ScenarioViews()
	checks := []struct {
		property string
		mainRep  string
		hazmat   string
		emerg    string
	}{
		{"site extent", "full", "full", "full"},
		{"site name", "hidden", "full", "full"},
		{"chemical names", "hidden", "full", "full"},
		{"chemical codes", "hidden", "hidden", "full"},
		{"quantities", "hidden", "hidden", "full"},
		{"site contacts", "hidden", "hidden", "full"},
		{"stream layer", "full", "full", "full"},
	}
	for _, c := range checks {
		row := findRow(tab, c.property)
		if row == nil {
			t.Errorf("row %q missing", c.property)
			continue
		}
		if !strings.HasPrefix(row[1], c.mainRep) ||
			!strings.HasPrefix(row[2], c.hazmat) ||
			!strings.HasPrefix(row[3], c.emerg) {
			t.Errorf("row %q = %v, want prefixes %s/%s/%s",
				c.property, row, c.mainRep, c.hazmat, c.emerg)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6FineVsCoarse([]int{5, 15})
	if len(tab.Rows) != 6 { // 3 systems × 2 sizes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		leaked, missing := row[3], row[4]
		switch {
		case row[1] == "GRDF+SecOnto":
			if leaked != "0" || missing != "0" {
				t.Errorf("GRDF row imperfect: %v", row)
			}
		case strings.Contains(row[2], "permit"):
			if leaked == "0" {
				t.Errorf("permit-all baseline did not leak: %v", row)
			}
		case strings.Contains(row[2], "deny"):
			if missing == "0" {
				t.Errorf("deny-all baseline did not lose the extent: %v", row)
			}
		}
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7MergeEnforcement()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		enforced := row[len(row)-1]
		if row[1] == "GRDF+SecOnto" && enforced != "yes" {
			t.Errorf("GRDF enforcement broke: %v", row)
		}
		if row[1] == "GeoXACML" && enforced == "yes" {
			t.Errorf("baseline unexpectedly enforced: %v", row)
		}
	}
}

// TestE5E6E7TablesArePinned: the role matrix (E5), the fine- vs object-level
// comparison at its default sizes (E6) and the merge-enforcement table (E7),
// byte for byte as grdf-bench prints them. They moved only on purpose.
func TestE5E6E7TablesArePinned(t *testing.T) {
	for _, c := range []struct {
		tab    *Table
		golden string
	}{
		{E5ScenarioViews(), `== E5: Contamination scenario role views (Sec 7.1, List 8) ==
  property                      main repair  hazmat     emergency
  ----------------------------  -----------  ---------  ---------
  site extent (grdf:boundedBy)  full (8)     full (8)   full (8)
  site name                     hidden       full (8)   full (8)
  chemical names                hidden       full (18)  full (18)
  chemical codes                hidden       hidden     full (18)
  quantities                    hidden       hidden     full (18)
  site contacts                 hidden       hidden     full (8)
  stream layer                  full (14)    full (14)  full (14)
  note: expected (paper): main repair = extent+streams only; hazmat adds site names and chemical NAMES; emergency sees everything
  note: view sizes: main repair 172, hazmat 250, emergency 310 triples (source 312)

`},
		{E6FineVsCoarse(nil), `== E6: Fine-grained (GRDF+SecOnto) vs object-level (GeoXACML) access ==
  sites  system        policy choice                  leaked triples  missing triples
  -----  ------------  -----------------------------  --------------  ---------------
  5      GRDF+SecOnto  boundedBy only                 0               0
  5      GeoXACML      permit sites (all-or-nothing)  42              0
  5      GeoXACML      deny sites (all-or-nothing)    0               5
  20     GRDF+SecOnto  boundedBy only                 0               0
  20     GeoXACML      permit sites (all-or-nothing)  171             0
  20     GeoXACML      deny sites (all-or-nothing)    0               20
  50     GRDF+SecOnto  boundedBy only                 0               0
  50     GeoXACML      permit sites (all-or-nothing)  435             0
  50     GeoXACML      deny sites (all-or-nothing)    0               50
  note: expected shape: GRDF row has 0 leaked + 0 missing at every size; each GeoXACML choice fails one way

`},
		{E7MergeEnforcement(), `== E7: Policy enforcement under data aggregation (Sec 7.1 merge) ==
  stage         system        extent visible  sensitive leaked  enforced
  ------------  ------------  --------------  ----------------  --------
  before merge  GRDF+SecOnto  10/10           0                 yes
  before merge  GeoXACML      10/10           10                no
  after merge   GRDF+SecOnto  10/10           0                 yes
  after merge   GeoXACML      0/10            0                 no
  note: expected shape: GRDF enforced before AND after the merge; GeoXACML over-exposes before and loses coverage after the subclass re-typing

`},
	} {
		if got := c.tab.String(); got != c.golden {
			t.Errorf("%s:\n%s\nwant:\n%s", c.tab.ID, got, c.golden)
		}
	}
}

func TestE8CacheWinsAndInvalidates(t *testing.T) {
	tab := E8QueryCache(30)
	var off, on []string
	for _, row := range tab.Rows {
		if row[0] == "role views" && row[1] == "off" {
			off = row
		}
		if row[0] == "role views" && strings.HasPrefix(row[1], "on") {
			on = row
		}
		if row[0] == "invalidation on data change" && row[1] != "yes" {
			t.Errorf("invalidation failed: %v", row)
		}
	}
	if off == nil || on == nil {
		t.Fatalf("rows missing: %v", tab.Rows)
	}
	if !strings.HasSuffix(on[5], "x") || on[5] == "1.0x" {
		t.Errorf("no speedup recorded: %v", on)
	}
}

func TestE9InferenceAddsAnswers(t *testing.T) {
	tab := E9Reasoning([]int{5, 15})
	for _, row := range tab.Rows {
		before, after := row[4], row[5]
		if before != "0" {
			t.Errorf("answers before reasoning = %s (want 0): %v", before, row)
		}
		if after == "0" || after == "-1" {
			t.Errorf("answers after reasoning = %s: %v", after, row)
		}
	}
}

func TestE10Runs(t *testing.T) {
	tab := E10StoreSparql([]int{5, 10})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "0" {
			t.Errorf("no triples generated: %v", row)
		}
	}
}

func TestE11Quality(t *testing.T) {
	tab := E11Alignment()
	row := findRow(tab, "identical names")
	if row == nil || row[1] != "1.00" {
		t.Errorf("identical alignment imperfect: %v", row)
	}
	noSyn := findRow(tab, "renamed, no synonyms")
	withSyn := findRow(tab, "renamed, with synonyms")
	if noSyn == nil || withSyn == nil {
		t.Fatal("rows missing")
	}
	if withSyn[3] <= noSyn[3] { // F1 strings compare OK for 0.xx format
		t.Errorf("synonyms did not help: %v vs %v", withSyn, noSyn)
	}
}

func TestE12ConflictResolution(t *testing.T) {
	tab := E12PolicyConflicts()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	merged := tab.Rows[0]
	if merged[1] == "0" {
		t.Errorf("merge not flagged ambiguous: %v", merged)
	}
	deny := findRow(tab, "deny wins")
	permit := findRow(tab, "permit wins")
	if deny == nil || permit == nil {
		t.Fatal("strategy rows missing")
	}
	if deny[1] != "0" || permit[1] != "0" {
		t.Errorf("strategies left conflicts: %v / %v", deny, permit)
	}
	if deny[2] != "denied" {
		t.Errorf("deny-wins outcome = %v", deny)
	}
	if permit[2] == "denied" {
		t.Errorf("permit-wins outcome = %v", permit)
	}
}

func TestE14FederationShape(t *testing.T) {
	tab := E14Federation(40)
	// 0-flaky breaker-off is skipped, leaving 5 cells.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", len(tab.Rows), tab)
	}
	rate := func(row []string) string { return row[4] }
	// With no flaky sources every request must be answered.
	if r := rate(tab.Rows[0]); r != "100.0%" {
		t.Errorf("0-flaky answered rate = %s, want 100.0%%", r)
	}
	// Breaker on keeps the answered rate >= 99% even with flaky sources
	// (ISSUE acceptance); breaker off must be measurably worse.
	var onRate, offRate float64
	for _, row := range tab.Rows {
		if row[0] != "2" {
			continue
		}
		var v float64
		fmt.Sscanf(rate(row), "%f%%", &v)
		if row[1] == "yes" {
			onRate = v
		} else {
			offRate = v
		}
	}
	if onRate < 99 {
		t.Errorf("breaker-on answered rate = %.1f%%, want >= 99%%\n%s", onRate, tab)
	}
	if offRate >= onRate {
		t.Errorf("breaker off (%.1f%%) not worse than on (%.1f%%)\n%s", offRate, onRate, tab)
	}
}

func TestE17LoadShape(t *testing.T) {
	tab := E17Load(40)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 RPS arms:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		var achieved float64
		if _, err := fmt.Sscanf(row[1], "%f", &achieved); err != nil || achieved <= 0 {
			t.Errorf("achieved rate %q not positive: %v", row[1], row)
		}
		if v := row[len(row)-1]; v != "PASS" && v != "FAIL" {
			t.Errorf("verdict %q, want PASS or FAIL: %v", v, row)
		}
	}
	joined := strings.Join(tab.Notes, " ")
	if strings.Contains(joined, "failed") {
		t.Fatalf("an arm errored:\n%s", tab)
	}
	if !strings.Contains(joined, "max sustained") {
		t.Errorf("missing max-sustained note: %v", tab.Notes)
	}
	if !strings.Contains(joined, "client/server p99 ratio") {
		t.Errorf("missing agreement note: %v", tab.Notes)
	}
}

func TestE20AdmissionShape(t *testing.T) {
	tab := E20Admission(40)
	// Four admission sweep steps plus the calibrated overload pair
	// (admission + ungated at 2x measured capacity).
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6:\n%s", len(tab.Rows), tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		if row[0] != "admission" && row[0] != "ungated" {
			t.Errorf("arm %q, want admission or ungated", row[0])
		}
		var goodput float64
		if _, err := fmt.Sscanf(row[3], "%f", &goodput); err != nil || goodput <= 0 {
			t.Errorf("goodput %q not positive: %v", row[3], row)
		}
	}
	if tab.Rows[len(tab.Rows)-1][0] != "ungated" {
		t.Errorf("last row should be the ungated baseline: %v", tab.Rows)
	}
	joined := strings.Join(tab.Notes, " ")
	if strings.Contains(joined, "failed") {
		t.Fatalf("an arm errored:\n%s", tab)
	}
	for _, want := range []string{"calibrated capacity", "2x capacity", "ungated at", "priority tiers"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q note: %v", want, tab.Notes)
		}
	}
}

func TestE15DurabilityShape(t *testing.T) {
	const records = 60
	tab := E15Durability(records)
	// Three policies x (append + recover-from-log + recover-from-snapshot).
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9:\n%s", len(tab.Rows), tab)
	}
	for _, note := range tab.Notes {
		if strings.Contains(note, "LOSS") {
			t.Fatalf("experiment reported data loss:\n%s", tab)
		}
	}
	for _, row := range tab.Rows {
		if row[0] != "recover" {
			continue
		}
		if row[6] != fmt.Sprintf("%d", records) {
			t.Errorf("recover row %v: recovered %s triples, want %d", row, row[6], records)
		}
	}
	// Snapshot recovery replays nothing.
	last := tab.Rows[len(tab.Rows)-1]
	if last[2] != "yes" || last[3] != "0" {
		t.Errorf("snapshot recovery row = %v, want snapshot=yes records=0", last)
	}
}

func TestE19ReplicationShape(t *testing.T) {
	tab := E19Replication(90)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 replica counts:\n%s", len(tab.Rows), tab)
	}
	if joined := strings.Join(tab.Notes, " "); strings.Contains(joined, "failed") {
		t.Fatalf("an arm errored (kill, restart, or rejoin broke):\n%s", tab)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		var errors int
		if _, err := fmt.Sscanf(row[4], "%d", &errors); err != nil {
			t.Fatalf("errors cell %q not numeric: %v", row[4], row)
		}
		if i == 0 && errors == 0 {
			// A lone replica has nothing to hide behind: the kill window
			// must surface as unanswered requests.
			t.Errorf("single-replica arm took a kill with zero errors: %v", row)
		}
		if i > 0 && errors != 0 {
			// Behind the router, surviving replicas must absorb the outage.
			t.Errorf("%s-replica arm dropped %d requests: %v", row[0], errors, row)
		}
		if !strings.Contains(row[len(row)-1], "snapshots") {
			t.Errorf("rejoin cell %q missing snapshot count: %v", row[len(row)-1], row)
		}
	}
}
