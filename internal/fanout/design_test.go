package fanout

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignDocMatchesTransitions keeps the member lifecycle table in
// DESIGN.md's "Transform fan-out" section in lockstep with
// Transitions(): adding, removing, or rewording a transition in one place
// without the other fails here.
func TestDesignDocMatchesTransitions(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "## Transform fan-out"
	_, rest, found := strings.Cut(string(raw), header)
	if !found {
		t.Fatalf("DESIGN.md is missing the %q section", header)
	}
	if next := strings.Index(rest, "\n## "); next >= 0 {
		rest = rest[:next]
	}
	rowRE := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+)`\\s*\\|\\s*`([a-z]+)`\\s*\\|\\s*([^|]+?)\\s*\\|")
	var documented []string
	for _, m := range rowRE.FindAllStringSubmatch(rest, -1) {
		documented = append(documented, fmt.Sprintf("%s→%s: %s", m[1], m[2], m[3]))
	}

	var registered []string
	for _, tr := range Transitions() {
		registered = append(registered, fmt.Sprintf("%s→%s: %s", tr.From, tr.To, tr.Trigger))
	}
	if strings.Join(documented, "\n") != strings.Join(registered, "\n") {
		t.Errorf("DESIGN.md documents:\n%s\n\nbut Transitions() holds:\n%s\n\nupdate the table in %q or fanout.Transitions to match",
			strings.Join(documented, "\n"), strings.Join(registered, "\n"), header)
	}
}
