package repository

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/zoo"
)

func testPlanner() *planner.Planner {
	return planner.New(cost.Exact(cost.CPU()), planner.AlgoGroup)
}

func TestPutGetDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.Imgclsmob().MustGet("resnet18-imagenet")
	if err := s.Put(g); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(g); err == nil {
		t.Fatal("duplicate Put accepted")
	}
	got, ok := s.Get("resnet18-imagenet")
	if !ok || !got.Equal(g) {
		t.Fatal("Get mismatch")
	}
	if s.Len() != 1 || len(s.Names()) != 1 {
		t.Fatalf("Len/Names wrong")
	}
	// The file exists on disk.
	if _, err := os.Stat(filepath.Join(dir, "resnet18-imagenet.json")); err != nil {
		t.Fatalf("model file missing: %v", err)
	}
	if err := s.Delete("resnet18-imagenet"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("resnet18-imagenet"); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, ok := s.Get("resnet18-imagenet"); ok {
		t.Fatal("deleted model still present")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := zoo.Imgclsmob()
	a := img.MustGet("resnet18-imagenet")
	b := img.MustGet("resnet34-imagenet")
	if err := s1.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(b); err != nil {
		t.Fatal(err)
	}

	// Reopen with a planner: both models reload and plans precompute.
	s2, err := Open(dir, testPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d models", s2.Len())
	}
	got, ok := s2.Get("resnet34-imagenet")
	if !ok || !got.Equal(b) {
		t.Fatal("reloaded model differs")
	}
	ra, _ := s2.Get("resnet18-imagenet")
	rb, _ := s2.Get("resnet34-imagenet")
	if _, ok := s2.Plans().Get(ra, rb); !ok {
		t.Error("plans not precomputed on reopen")
	}
	if _, ok := s2.Plans().Get(rb, ra); !ok {
		t.Error("reverse plan not precomputed")
	}
}

func TestPutPrecomputesPlans(t *testing.T) {
	s, err := Open(t.TempDir(), testPlanner())
	if err != nil {
		t.Fatal(err)
	}
	img := zoo.Imgclsmob()
	a := img.MustGet("vgg16-imagenet")
	b := img.MustGet("vgg19-imagenet")
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	s.Quiesce() // planning is asynchronous; wait for the worker pool
	k, ok := s.Plans().Get(a, b)
	if !ok {
		t.Fatal("a→b plan missing after Put")
	}
	if !reflect.DeepEqual(k.Plan(), testPlanner().Plan(a, b)) {
		t.Error("steps built from the precomputed a→b entry differ from a serial plan")
	}
}

func TestRejectsInvalidAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := zoo.Imgclsmob().MustGet("resnet18-imagenet").Clone()
	bad.Op(1).Shape = struct {
		KernelH, KernelW, InChannels, OutChannels, Stride int
	}{} // zero shape on a weighted op
	if err := s.Put(bad); err == nil {
		t.Fatal("invalid model accepted")
	}
	// A corrupt file on disk fails the reopen loudly.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("corrupt repository opened silently")
	}
}

func TestFilenameSanitization(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.Imgclsmob().MustGet("resnet18-imagenet").Clone()
	g.Name = "weird/../name with spaces"
	if err := s.Put(g); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d files on disk", len(entries))
	}
	name := entries[0].Name()
	if filepath.Dir(filepath.Join(dir, name)) != dir {
		t.Fatalf("path escape: %q", name)
	}
	for _, r := range name {
		if r == '/' || r == ' ' {
			t.Fatalf("unsanitized filename %q", name)
		}
	}
}
