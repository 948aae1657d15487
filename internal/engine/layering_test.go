package engine

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestEnginesImportNoOtherEngine guards the layering: the four transports
// share code only through the engine core and the packages below it, so
// none of them may reach another — directly or through any package in
// between — in non-test code.
func TestEnginesImportNoOtherEngine(t *testing.T) {
	const module = "combining/"
	root := filepath.Join("..", "..")
	engines := []string{"internal/network", "internal/hypercube", "internal/busnet", "internal/asyncnet"}
	// deps returns the module-local packages rel reaches, transitively.
	deps := func(rel string) map[string]bool {
		seen := map[string]bool{}
		var walk func(string)
		walk = func(rel string) {
			pkg, err := build.ImportDir(filepath.Join(root, rel), 0)
			if err != nil {
				t.Fatalf("%s: %v", rel, err)
			}
			for _, imp := range pkg.Imports {
				dep, ok := strings.CutPrefix(imp, module)
				if ok && !seen[dep] {
					seen[dep] = true
					walk(dep)
				}
			}
		}
		walk(rel)
		return seen
	}
	for _, eng := range engines {
		reached := deps(eng)
		for _, other := range engines {
			if other != eng && reached[other] {
				t.Errorf("%s imports %s", eng, other)
			}
		}
	}
}
