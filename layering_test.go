package blmr

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealEnginesLinkNoSimulator holds DESIGN §1's layering rule: the real
// engines (mr, mpexec) reach none of the simulator's packages, nor the
// harness and metrics built on them, through their non-test imports. It
// walks the module's import graph with go/build and prints the first chain
// that breaks the rule.
func TestRealEnginesLinkNoSimulator(t *testing.T) {
	const module = "blmr/"
	forbidden := map[string]bool{}
	for _, p := range []string{"sim", "cluster", "workload", "simmr", "harness", "metrics", "stats"} {
		forbidden[module+"internal/"+p] = true
	}
	for _, root := range []string{"blmr/internal/mr", "blmr/internal/mpexec"} {
		parent := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if !strings.HasPrefix(imp, module) {
					continue
				}
				if _, seen := parent[imp]; seen {
					continue
				}
				parent[imp] = path
				if forbidden[imp] {
					chain := []string{imp}
					for p := path; p != ""; p = parent[p] {
						chain = append([]string{p}, chain...)
					}
					t.Errorf("%s links simulator code: %s", root, strings.Join(chain, " -> "))
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
