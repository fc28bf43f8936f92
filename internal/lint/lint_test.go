package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches a golden expectation: `// want "substring of the message"`.
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants scans a testdata directory's sources for // want comments,
// returning file -> line -> unmatched expectations.
func collectWants(t *testing.T, dir string) map[string]map[int][]string {
	t.Helper()
	wants := map[string]map[int][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				if wants[path] == nil {
					wants[path] = map[int][]string{}
				}
				wants[path][i+1] = append(wants[path][i+1], m[1])
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want expectations under %s", dir)
	}
	return wants
}

// runGolden lints one testdata package and matches findings against wants.
func runGolden(t *testing.T, name string, mutate func(*Config)) {
	t.Helper()
	cfg := Config{
		Dir:            filepath.Join("testdata", "src", name),
		ModulePath:     "lintcheck/" + name,
		EnginePrefixes: []string{"lintcheck/"},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, cfg.Dir)
	for _, f := range res.Findings {
		matched := false
		for i, w := range wants[f.File][f.Line] {
			if strings.Contains(f.Msg, w) {
				wants[f.File][f.Line] = append(wants[f.File][f.Line][:i], wants[f.File][f.Line][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, lines := range wants {
		for line, rest := range lines {
			for _, w := range rest {
				t.Errorf("%s:%d: expected a finding containing %q, got none", file, line, w)
			}
		}
	}
}

func TestGoldenDeterminism(t *testing.T) { runGolden(t, "determinism", nil) }

func TestGoldenNoPanic(t *testing.T) { runGolden(t, "nopanic", nil) }

func TestGoldenHotAlloc(t *testing.T) {
	runGolden(t, "hotalloc", func(c *Config) {
		c.HotRoots = []string{"lintcheck/hotalloc.Execute"}
	})
}

func TestGoldenExhaustive(t *testing.T) {
	runGolden(t, "exhaustive", func(c *Config) {
		// The testdata imports the real vmx package, proving the acceptance
		// case: a switch missing exactly one ExitReason is caught.
		c.Deps = map[string]string{"repro/internal/vmx": filepath.Join("..", "vmx")}
	})
}

// TestGoldenSuppressionsRecorded proves suppressed findings are kept (with
// their reasons) rather than silently dropped.
func TestGoldenSuppressionsRecorded(t *testing.T) {
	res, err := Run(Config{
		Dir:            filepath.Join("testdata", "src", "nopanic"),
		ModulePath:     "lintcheck/nopanic",
		EnginePrefixes: []string{"lintcheck/"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("suppressed = %d, want the one annotated panic", len(res.Suppressed))
	}
	s := res.Suppressed[0]
	if s.Rule != RuleNoPanic || !strings.Contains(s.SuppressReason, "documented invariant") {
		t.Fatalf("suppressed finding = %+v", s)
	}
}

// cacheGenTestConfig wires the cachegen fixture: Compile and CompileDelivery
// are the compile roots (the rule walks every root with the same guarded-
// field obligations), World/CostModel are watched, and
// SetCosts/SetCaps/SetProfile are generation setters (SetCaps deliberately
// missing its bump; SetProfile owes two bumps and deliberately delivers only
// CostGen).
func cacheGenTestConfig(c *Config) {
	c.CacheGen = &CacheGenConfig{
		CompileRoots: []string{
			"lintcheck/cachegen.Compile",
			"lintcheck/cachegen.CompileDelivery",
		},
		WatchedTypes: []string{"lintcheck/cachegen.World", "lintcheck/cachegen.CostModel"},
		GuardedReads: map[string]string{
			"lintcheck/cachegen.CostModel":   "CostGen",
			"lintcheck/cachegen.World.Costs": "CostGen",
			"lintcheck/cachegen.World.Caps":  "CapsGen",
		},
		GenBumps: map[string][]string{
			"lintcheck/cachegen.(*World).SetCosts": {"lintcheck/cachegen.Machine.CostGen"},
			"lintcheck/cachegen.(*World).SetCaps":  {"lintcheck/cachegen.Machine.CapsGen"},
			"lintcheck/cachegen.(*World).SetProfile": {
				"lintcheck/cachegen.Machine.CostGen",
				"lintcheck/cachegen.Machine.CapsGen",
			},
		},
		SetterOnly: map[string][]string{
			"lintcheck/cachegen.World.Costs": {
				"lintcheck/cachegen.(*World).SetCosts",
				"lintcheck/cachegen.(*World).SetProfile",
			},
		},
	}
}

func TestGoldenCacheGen(t *testing.T) { runGolden(t, "cachegen", cacheGenTestConfig) }

// TestGoldenRequiresRule proves every // want in the cachegen fixture comes
// from its rule: with the rule left unconfigured, the same package lints
// clean, so disabling the rule would fail the golden test above by leaving
// every expectation unmatched.
func TestGoldenRequiresRule(t *testing.T) {
	res, err := Run(Config{
		Dir:            filepath.Join("testdata", "src", "cachegen"),
		ModulePath:     "lintcheck/cachegen",
		EnginePrefixes: []string{"lintcheck/cachegen/enginepkgs"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("cachegen with its rule disabled still reports: %s", f)
	}
}

// TestUnusedDirectives checks the stale-directive pass: every directive in
// the fixture suppresses nothing and must be reported, including the unknown
// verb.
func TestUnusedDirectives(t *testing.T) {
	res, err := Run(Config{
		Dir:            filepath.Join("testdata", "src", "unuseddir"),
		ModulePath:     "lintcheck/unuseddir",
		EnginePrefixes: []string{"lintcheck/"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("fixture has active findings: %v", res.Findings)
	}
	want := []struct {
		line int
		frag string
	}{
		{7, "stale //nvlint:cold"},
		{13, "stale //nvlint:ignore nopanic"},
		{15, "stale //nvlint:ordered"},
		{17, `unknown nvlint directive "bogus"`},
	}
	if len(res.Unused) != len(want) {
		t.Fatalf("unused = %d, want %d: %v", len(res.Unused), len(want), res.Unused)
	}
	for i, w := range want {
		u := res.Unused[i]
		if u.Rule != RuleDirective || u.Line != w.line || !strings.Contains(u.Msg, w.frag) {
			t.Errorf("unused[%d] = %s, want line %d containing %q", i, u, w.line, w.frag)
		}
	}
}

// TestOutputDeterministic pins the ordering contract: two runs over the same
// tree yield identical findings, sorted by (file, line, rule).
func TestOutputDeterministic(t *testing.T) {
	a := mustRun(t, "cachegen", cacheGenTestConfig)
	b := mustRun(t, "cachegen", cacheGenTestConfig)
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Errorf("two runs disagree:\n%v\n%v", a.Findings, b.Findings)
	}
	for i := 1; i < len(a.Findings); i++ {
		p, q := a.Findings[i-1], a.Findings[i]
		if p.File > q.File || (p.File == q.File && p.Line > q.Line) ||
			(p.File == q.File && p.Line == q.Line && p.Rule > q.Rule) {
			t.Errorf("findings not sorted by (file, line, rule): %s before %s", p, q)
		}
	}
}

// mustRun lints one testdata package with the given config mutation.
func mustRun(t *testing.T, name string, mutate func(*Config)) *Result {
	t.Helper()
	cfg := Config{
		Dir:            filepath.Join("testdata", "src", name),
		ModulePath:     "lintcheck/" + name,
		EnginePrefixes: []string{"lintcheck/"},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEncodeJSON pins the JSON-lines shape: one parseable object per line,
// findings first, with directive candidates attached to active findings.
func TestEncodeJSON(t *testing.T) {
	res := mustRun(t, "cachegen", cacheGenTestConfig)
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings to encode")
	}
	var buf strings.Builder
	if err := EncodeJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Findings)+len(res.Suppressed)+len(res.Unused) {
		t.Fatalf("got %d JSON lines, want %d", len(lines),
			len(res.Findings)+len(res.Suppressed)+len(res.Unused))
	}
	for i, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if f.Rule == "" || f.File == "" || f.Line == 0 || f.Msg == "" || f.Kind == "" {
			t.Errorf("line %d missing required fields: %s", i+1, line)
		}
		if f.Kind == "finding" && len(f.DirectiveCandidates) == 0 {
			t.Errorf("line %d: active finding has no directive candidates", i+1)
		}
	}
}

// TestModuleLintsClean is the gate the repository itself must pass: nvlint
// over the whole module reports nothing — no findings and no stale
// directives — with all five rules enabled.
func TestModuleLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module from source")
	}
	cfg, err := ModuleConfig(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Error(f.String())
	}
	for _, f := range res.Unused {
		t.Errorf("stale directive: %s", f)
	}
	if res.HotFuncs == 0 {
		t.Error("hot set is empty; the hot roots did not resolve")
	}
	wantRules := []string{
		RuleCacheGen, RuleDeterminism, RuleExhaustive, RuleHotAlloc,
		RuleNoPanic,
	}
	if !reflect.DeepEqual(res.RulesRun, wantRules) {
		t.Errorf("rules run = %v, want %v", res.RulesRun, wantRules)
	}
	// Every suppression must carry a reason: an unexplained ignore is a
	// finding in itself.
	for _, s := range res.Suppressed {
		if s.SuppressReason == "(no reason given)" {
			t.Errorf("%s:%d: [%s] suppressed without a reason", s.File, s.Line, s.Rule)
		}
	}
}
