package optimus

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fmaGuard gates TestNoFusedMultiplyAdd: it cross-compiles the module four
// times and belongs to `make fmaguard`, not the tier-1 suite.
var fmaGuard = flag.Bool("fma-guard", false,
	"cross-compile for every fusing GOARCH and fail on any fused multiply-add")

// fusedOp matches a fused multiply-add in `go build -gcflags=-S` output:
// FMADDD, FMSUBD, FNMADDD and FNMSUBD (arm64, riscv64) or the same opcodes
// without the D suffix (ppc64le, s390x). The capture is the source position.
var fusedOp = regexp.MustCompile(`\((\S+:\d+)\)\s+FN?M(?:ADD|SUB)D?\s`)

// TestNoFusedMultiplyAdd keeps outputs bit-identical on every GOARCH. The Go
// spec lets a compiler fuse x*y + z into one instruction that rounds once
// instead of twice; gc does so on arm64, ppc64le, s390x and riscv64 (never on
// amd64), so a fused site makes a seed's output depend on the machine. An
// explicit float64(...) conversion of the product prevents the fusion. The
// guard cross-compiles the library packages for each of those architectures
// and names every source line that still fuses.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if !*fmaGuard {
		t.Skip("pass -fma-guard to cross-compile for arm64, ppc64le, s390x and riscv64")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command("go", "build", "-gcflags=-S", ".", "./internal/...")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s build: %v\n%s", arch, err, out)
		}
		sites := map[string]int{}
		for _, line := range strings.Split(string(out), "\n") {
			if m := fusedOp.FindStringSubmatch(line); m != nil {
				sites[m[1]]++
			}
		}
		lines := make([]string, 0, len(sites))
		for site, n := range sites {
			lines = append(lines, fmt.Sprintf("%s (%d)", site, n))
		}
		sort.Strings(lines)
		if len(lines) > 0 {
			t.Errorf("GOARCH=%s fuses multiply-adds on %d source lines; wrap each product in float64(...):\n  %s",
				arch, len(lines), strings.Join(lines, "\n  "))
		}
	}
}
