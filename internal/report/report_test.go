package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.Add("a", "1")
	tb.Add("longer-name", "22")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}
	// Value columns start at the same offset.
	off3 := strings.Index(lines[3], "1")
	off4 := strings.Index(lines[4], "22")
	if off3 != off4 {
		t.Errorf("misaligned columns: %d vs %d\n%s", off3, off4, s)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := New("", "x")
	tb.Add(`va"l,ue`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("bad CSV escaping: %q", csv)
	}
}

func TestRaggedRows(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.Add("1")
	tb.Add("1", "2", "3")
	if s := tb.String(); !strings.Contains(s, "3") {
		t.Errorf("ragged table broken:\n%s", s)
	}
}
