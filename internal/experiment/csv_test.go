package experiment

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, out string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFig7CSV(t *testing.T) {
	points := RunFig7(Fig7Config{Nodes: 30, Alpha: 0.25, Beta: 0.2, GroupSizes: []int{5}, Seeds: 2})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	// 3 levels x 1 size x 3 algorithms + header.
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if rows[0][0] != "level" || len(rows[1]) != 7 {
		t.Fatalf("header/shape wrong: %v", rows[0])
	}
}

func TestFig89CSV(t *testing.T) {
	cfg := Fig89Config{GroupSizes: []int{8}, Seeds: 1, SimTime: 3, DataRate: 1,
		PruneLifetime: 5, Topologies: []string{TopoArpanet}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, RunFig89(cfg)); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 5 { // header + 4 protocols
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[1][0] != TopoArpanet || rows[1][9] != "0" {
		t.Fatalf("row = %v", rows[1])
	}
}

func TestPlacementStateConcentrationCSV(t *testing.T) {
	var buf bytes.Buffer
	pp := RunPlacement(PlacementConfig{Nodes: 30, GroupSize: 8, Seeds: 1, Trials: 2, Kappa: 1.5})
	if err := WriteCSV(&buf, pp); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.String()); len(rows) != len(PlacementRules)+1 {
		t.Fatalf("placement rows = %d", len(rows))
	}

	buf.Reset()
	sp := RunState(StateConfig{Nodes: 20, Degree: 3, Groups: []int{2}, Members: 4, Senders: 2, PacketsPer: 1, Seeds: 1})
	if err := WriteCSV(&buf, sp); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.String()); len(rows) != len(Protocols)+1 {
		t.Fatalf("state rows = %d", len(rows))
	}

	buf.Reset()
	cp := RunConcentration(ConcentrationConfig{Nodes: 20, Degree: 3, Groups: 2, Members: 4, Senders: 3, Rounds: 1, Seeds: 1})
	if err := WriteCSV(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, buf.String()); len(rows) != 5 {
		t.Fatalf("concentration rows = %d", len(rows))
	}
}
