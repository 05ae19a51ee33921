package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// loadFixture type-checks one package under testdata/src. Fixtures are
// loaded per test (not shared) so suppression markers and metric-family
// state in one fixture cannot leak into another's run.
func loadFixture(t *testing.T, name string) (*Package, *Module) {
	t.Helper()
	targets, mod, err := Load(filepath.Join("testdata", "src", name), []string{"."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(targets) != 1 {
		t.Fatalf("fixture %s: got %d target packages, want 1", name, len(targets))
	}
	return targets[0], mod
}

// wantRe matches the expectation comments fixtures carry:
// `// want "regexp"` (multiple quoted patterns allowed on one line).
var wantRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	pattern *regexp.Regexp
	met     bool
}

// collectWants indexes every `// want` comment by (file base name, line).
func collectWants(t *testing.T, mod *Module, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := mod.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				ms := wantRe.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without quoted pattern: %s", key, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], &expectation{pattern: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over one fixture package and matches the
// findings against its want comments, one-to-one.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) Result {
	t.Helper()
	pkg, mod := loadFixture(t, name)
	wants := collectWants(t, mod, pkg)
	res := Run(mod, []*Package{pkg}, analyzers)
	matchWants(t, wants, res)
	return res
}

// matchWants pairs findings against want expectations one-to-one.
func matchWants(t *testing.T, wants map[string][]*expectation, res Result) {
	t.Helper()
	for _, f := range res.Findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.met && w.pattern.MatchString(f.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.met {
				t.Errorf("missing finding at %s: no message matched %q", key, w.pattern)
			}
		}
	}
}

// checkScopedFixture is checkFixture for analyzers gated on a package-scope
// set (ConcurrencyPackages, SeedTaintPackages): the fixture package is
// promoted into the scope for the duration of the run.
func checkScopedFixture(t *testing.T, name string, analyzers []*Analyzer, scope map[string]bool) Result {
	t.Helper()
	pkg, mod := loadFixture(t, name)
	if scope[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already in scope", pkg.Path)
	}
	scope[pkg.Path] = true
	defer delete(scope, pkg.Path)
	wants := collectWants(t, mod, pkg)
	res := Run(mod, []*Package{pkg}, analyzers)
	matchWants(t, wants, res)
	return res
}

func TestHotPathAllocFixture(t *testing.T) {
	res := checkFixture(t, "hotpathalloc", []*Analyzer{HotPathAlloc})
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the justified direct append)", res.Suppressed)
	}
}

func TestDeterministicOrderFixture(t *testing.T) {
	res := checkFixture(t, "deterministicorder", []*Analyzer{DeterministicOrder})
	// Rule 2 is scoped to EnginePackages: the unannotated packageRand must
	// stay silent while the fixture is outside that set.
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "packageRand") {
			t.Errorf("rule 2 fired outside EnginePackages: %s", f)
		}
	}
}

func TestDeterministicOrderEnginePackageRule(t *testing.T) {
	pkg, mod := loadFixture(t, "deterministicorder")
	if EnginePackages[pkg.Path] {
		t.Fatalf("fixture %s unexpectedly already an engine package", pkg.Path)
	}
	EnginePackages[pkg.Path] = true
	defer delete(EnginePackages, pkg.Path)

	res := Run(mod, []*Package{pkg}, []*Analyzer{DeterministicOrder})
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "global math/rand source (Intn) in packageRand") {
			found = true
		}
	}
	if !found {
		t.Errorf("promoting the fixture into EnginePackages did not flag packageRand's global rand draw; findings: %v", res.Findings)
	}
}

func TestMetricSchemaFixture(t *testing.T) {
	checkFixture(t, "metricschema", []*Analyzer{MetricSchema})
}

func TestErrCheckFixture(t *testing.T) {
	res := checkFixture(t, "errcheck", []*Analyzer{ErrCheck})
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, "floateq", []*Analyzer{FloatEq})
}

// TestSuppressionContract asserts the lint-ignore edge cases explicitly:
// the malformed-marker line cannot carry a want comment (the comment text
// would make the marker well-formed).
func TestSuppressionContract(t *testing.T) {
	pkg, mod := loadFixture(t, "suppress")
	res := Run(mod, []*Package{pkg}, []*Analyzer{ErrCheck})

	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (same-line and line-above markers)", res.Suppressed)
	}
	var malformed, errcheck int
	for _, f := range res.Findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "malformed //cmfl:lint-ignore"):
			malformed++
		case f.Analyzer == "errcheck":
			errcheck++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if malformed != 1 {
		t.Errorf("malformed-marker findings = %d, want 1", malformed)
	}
	// missingReason (marker without reason does not silence) and
	// wrongAnalyzer (floateq marker does not silence errcheck).
	if errcheck != 2 {
		t.Errorf("surviving errcheck findings = %d, want 2", errcheck)
	}
}

// TestGeneratedAndTestFilesSkipped: gen.go (generated header) and
// skipped_test.go are full of violations; only plain.go may report.
func TestGeneratedAndTestFilesSkipped(t *testing.T) {
	pkg, mod := loadFixture(t, "generated")
	for _, f := range pkg.Files {
		name := filepath.Base(mod.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loader parsed test file %s", name)
		}
	}
	res := Run(mod, []*Package{pkg}, All())
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly the one in plain.go", res.Findings)
	}
	f := res.Findings[0]
	if filepath.Base(f.File) != "plain.go" || f.Analyzer != "errcheck" {
		t.Errorf("finding = %s, want the errcheck finding in plain.go", f)
	}
}

// TestResultJSONRoundTrip: the -json document must survive a decode/encode
// cycle bit-for-bit, so CI tooling can post-process it.
func TestResultJSONRoundTrip(t *testing.T) {
	pkg, mod := loadFixture(t, "floateq")
	res := Run(mod, []*Package{pkg}, []*Analyzer{FloatEq})
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings to round-trip")
	}
	for _, orig := range []Result{res, {}} {
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(orig, back) {
			t.Errorf("round trip changed the result:\n  orig: %+v\n  back: %+v", orig, back)
		}
	}
}

// TestRepoClean is the acceptance gate: the repository itself must carry no
// findings (every true positive was fixed or audited in place), and `./...`
// expansion must never descend into testdata.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	targets, mod, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range targets {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("./... expansion descended into %s", pkg.Path)
		}
	}
	res := Run(mod, targets, All())
	for _, f := range res.Findings {
		t.Errorf("repo finding: %s", f)
	}
	if res.Suppressed == 0 {
		t.Error("suppressed = 0: the audited //cmfl:lint-ignore markers went unseen")
	}
}

// writeTestModule lays out a two-package throwaway module where b imports
// a: a carries one errcheck finding and one suppressed one, b none.
func writeTestModule(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	writeModuleFile(t, dir, "go.mod", "module lintmod\n\ngo 1.24\n")
	writeModuleFile(t, dir, "a/a.go", `package a

import "os"

func Touch(path string) {
	_ = os.Remove(path)
}

func Quiet(path string) {
	//cmfl:lint-ignore errcheck best-effort cleanup in fixture
	_ = os.Remove(path)
}
`)
	writeModuleFile(t, dir, "b/b.go", `package b

import "lintmod/a"

func Use() {
	a.Touch("x")
}
`)
	return dir
}

func writeModuleFile(t testing.TB, dir, rel, content string) {
	t.Helper()
	full := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunModulePkgFilter: -pkg narrows the target set by substring. b
// imports a, so a is loaded either way; only as a target do its findings
// and its suppression count.
func TestRunModulePkgFilter(t *testing.T) {
	dir := writeTestModule(t)
	for _, tc := range []struct {
		filter               string
		findings, suppressed int
	}{
		{"lintmod/b", 0, 0},
		{"lintmod/a", 1, 1},
	} {
		res, err := RunModule(dir, []string{"./..."}, []*Analyzer{ErrCheck}, RunOptions{PkgFilter: tc.filter})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) != tc.findings || res.Suppressed != tc.suppressed {
			t.Errorf("run filtered to %s = %d finding(s), %d suppressed, want %d and %d: %v",
				tc.filter, len(res.Findings), res.Suppressed, tc.findings, tc.suppressed, res.Findings)
		}
	}
}

// TestRunModuleMissingImport: an import that resolves nowhere is a load
// error naming the import, never an empty package or a panic.
func TestRunModuleMissingImport(t *testing.T) {
	dir := writeTestModule(t)
	writeModuleFile(t, dir, "c/c.go", "package c\n\nimport _ \"cmflmissing/pkg\"\n")
	res, err := RunModule(dir, []string{"./..."}, []*Analyzer{ErrCheck}, RunOptions{})
	if err == nil {
		t.Fatalf("RunModule succeeded with %d finding(s), want a load error", len(res.Findings))
	}
	if !strings.Contains(err.Error(), "cmflmissing/pkg") {
		t.Errorf("load error does not name the missing import: %v", err)
	}
}

// TestRunModuleWithoutGoCommand: standard-library export data comes from
// `go list`; without a go command on PATH the load fails loudly.
func TestRunModuleWithoutGoCommand(t *testing.T) {
	dir := writeTestModule(t)
	t.Setenv("PATH", "")
	_, err := RunModule(dir, []string{"./..."}, []*Analyzer{ErrCheck}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "go list could not run") {
		t.Errorf("RunModule without go on PATH: err = %v, want \"go list could not run\"", err)
	}
}

// TestRunModuleRepeatable runs the full suite over the real module twice
// and demands identical results, down to the per-analyzer finding counts
// before suppression: the byte-identical -json and -sarif documents rest
// on this.
func TestRunModuleRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := filepath.Join("..", "..")
	var runs [2]Result
	for i := range runs {
		res, err := RunModule(root, []string{"./..."}, All(), RunOptions{Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.Stats.Analyzers {
			res.Stats.Analyzers[j].MS = 0
		}
		res.Stats.LoadMS, res.Stats.WallMS = 0, 0
		runs[i] = res
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("two runs over the module diverged:\n  first:  %+v\n  second: %+v", runs[0], runs[1])
	}
}

// BenchmarkCmflVetCold measures a full load and analysis of the module.
func BenchmarkCmflVetCold(b *testing.B) {
	root := filepath.Join("..", "..")
	for i := 0; i < b.N; i++ {
		if _, err := RunModule(root, []string{"./..."}, All(), RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
