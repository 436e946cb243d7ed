package lint

import (
	"path/filepath"
	"testing"
	"time"
)

// lintRepoBudget bounds one full-repository lint run. Loading and
// typechecking dominate it; the gate stays useful only while it is fast
// enough for CI and pre-commit, so a run blowing this budget is a
// regression, not a shrug.
const lintRepoBudget = 5 * time.Second

// BenchmarkLintRepo measures the wall time of a full-repository lint run:
// loading and typechecking every package with the stdlib-only loader,
// then running every analyzer of the suite. Run via `make lint-bench`;
// every iteration also enforces lintRepoBudget.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		pkgs, err := Load(filepath.Join("..", ".."), []string{"./..."})
		if err != nil {
			b.Fatalf("loading repository: %v", err)
		}
		if diags := RunScoped(pkgs, pkgs, All()); len(diags) > 0 {
			b.Fatalf("repository is not clean: %s", diags[0])
		}
		if elapsed := time.Since(start); elapsed > lintRepoBudget {
			b.Fatalf("full-repo lint took %v, over the %v budget", elapsed, lintRepoBudget)
		}
	}
}
