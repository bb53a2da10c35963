package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, rel string
		want     bool
	}{
		{"./...", "", true},
		{"./...", "internal/simulate", true},
		{".", "", true},
		{".", "internal/simulate", false},
		{"./internal/...", "internal", true},
		{"./internal/...", "internal/simulate", true},
		{"./internal/...", "cmd/optimus-sim", false},
		{"./internal/simulate", "internal/simulate", true},
		{"./internal/simulate", "internal/simulate/sub", false},
		{"internal/simulate", "internal/simulate", true},
	}
	for _, c := range cases {
		if got := matchPattern(c.pat, c.rel); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.rel, got, c.want)
		}
	}
}

// TestPackageDirsSkipsNestedModules: like the go tool's ./..., the loader
// stops at a directory holding its own go.mod.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module m\n",
		"a/a.go":           "package a\n",
		"a/inner/inner.go": "package inner\n",
		"nested/go.mod":    "module n\n",
		"nested/nested.go": "package nested\n",
		"nested/b/b.go":    "package b\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := NewLoader(root, "m").packageDirs()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dirs {
		got = append(got, d.rel)
	}
	if want := []string{"a", "a/inner"}; !reflect.DeepEqual(got, want) {
		t.Errorf("package dirs = %q, want %q", got, want)
	}
}

func TestTrailsCode(t *testing.T) {
	src := []byte("x := 1 // trailing\n\t// standalone\n")
	if !trailsCode(src, 7) {
		t.Error("comment after code not detected as trailing")
	}
	standalone := 20 // offset of the second comment's slash
	if trailsCode(src, standalone) {
		t.Error("indented standalone comment misdetected as trailing")
	}
}

func TestSplitWantPatterns(t *testing.T) {
	got, err := splitWantPatterns("\"first\" `second`")
	if err != nil || len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("splitWantPatterns = %v, %v", got, err)
	}
	if _, err := splitWantPatterns("unquoted"); err == nil {
		t.Error("unquoted want payload accepted")
	}
	if _, err := splitWantPatterns("\"open"); err == nil {
		t.Error("unterminated quote accepted")
	}
}

func TestFindModule(t *testing.T) {
	root, mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if mod != "repro" {
		t.Errorf("module path = %q, want repro", mod)
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "" {
		t.Errorf("implausible module root %q", root)
	}
}
