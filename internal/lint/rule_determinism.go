package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wallClockFuncs are the time-package functions that read the host clock or
// arm host timers; any of them makes a run non-reproducible.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "AfterFunc": true, "Sleep": true,
}

// checkDeterminism flags wall-clock reads, global math/rand use, go
// statements outside the allowed packages, and map ranges that are neither
// the sorted-collect idiom nor //nvlint:ordered — all within engine packages.
func checkDeterminism(prog *program, cfg *Config) []Finding {
	var out []Finding
	allowedGo := map[string]bool{}
	for _, p := range cfg.GoStmtAllowed {
		allowedGo[p] = true
	}
	for _, pkg := range prog.pkgs {
		if !engineScoped(cfg, pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			dirs := pkg.Directives[f]
			out = append(out, scanDeterminism(prog, pkg, dirs, f, allowedGo[pkg.Path])...)
		}
	}
	return out
}

// scanDeterminism applies the determinism checks to one file.
func scanDeterminism(prog *program, pkg *Package, dirs *fileDirectives, root ast.Node, allowGo bool) []Finding {
	var out []Finding
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !allowGo {
				out = append(out, finding(prog, pkg, dirs, n.Pos(), RuleDeterminism,
					"go statement outside the allowed packages; concurrency must go through internal/parallel"))
			}
		case *ast.CallExpr:
			if pkgName, fn := stdlibCall(pkg, n); pkgName != "" {
				switch {
				case pkgName == "time" && wallClockFuncs[fn]:
					out = append(out, finding(prog, pkg, dirs, n.Pos(), RuleDeterminism,
						"time."+fn+" reads the host clock; use the simulated clock (internal/sim)"))
				case (pkgName == "math/rand" || pkgName == "math/rand/v2") && fn != "New" && fn != "NewSource":
					out = append(out, finding(prog, pkg, dirs, n.Pos(), RuleDeterminism,
						"math/rand."+fn+" uses the global (unseeded) source; use the seeded internal/sim RNG"))
				}
			}
		case *ast.RangeStmt:
			if f := checkMapRange(prog, pkg, dirs, n); f != nil {
				out = append(out, *f)
			}
		}
		return true
	})
	return out
}

// stdlibCall resolves a call of the form pkg.Fn where pkg is an imported
// package name, returning the package path and function name.
func stdlibCall(pkg *Package, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// checkMapRange flags a range over a map unless it is allowlisted by
// //nvlint:ordered or matches the sorted-collect idiom: a body that only
// appends the key or value to a slice (to be sorted before use). Everything
// else can leak map iteration order into simulator output.
func checkMapRange(prog *program, pkg *Package, dirs *fileDirectives, rng *ast.RangeStmt) *Finding {
	t := pkg.Info.TypeOf(rng.X)
	if t == nil || !rangesOverMap(t) {
		return nil
	}
	line := prog.fset.Position(rng.Pos()).Line
	if dirs.orderedAt(line) {
		return nil
	}
	if isCollectIdiom(rng) {
		return nil
	}
	f := finding(prog, pkg, dirs, rng.Pos(), RuleDeterminism,
		"range over map: iteration order can reach simulator output; sort the keys, use the collect-then-sort idiom, or annotate //nvlint:ordered")
	return &f
}

// rangesOverMap reports whether ranging over a value of type t iterates a
// map. Type parameters are seen through: a range over `M ~map[K]V` has the
// same unordered iteration as a range over the map itself, so a constraint
// whose every structural term is a map counts.
func rangesOverMap(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		if _, ok := t.(*types.TypeParam); !ok {
			return false // an ordinary interface value cannot be ranged over
		}
		terms := false
		for i := 0; i < u.NumEmbeddeds(); i++ {
			un, ok := u.EmbeddedType(i).(*types.Union)
			if !ok {
				continue
			}
			for j := 0; j < un.Len(); j++ {
				terms = true
				if _, ok := un.Term(j).Type().Underlying().(*types.Map); !ok {
					return false
				}
			}
		}
		return terms
	}
	return false
}

// isCollectIdiom reports whether the range body is exactly one append of the
// range key or value into a slice: `s = append(s, k)`.
func isCollectIdiom(rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok {
		return false
	}
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name == arg.Name {
			return true
		}
	}
	return false
}

// checkNoPanic forbids panic() in engine packages: a panic tears down the
// whole simulation instead of failing the one experiment, and the parallel
// runner would lose every sibling stack's results with it.
func checkNoPanic(prog *program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.pkgs {
		if !engineScoped(cfg, pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			dirs := pkg.Directives[f]
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok {
					if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
						out = append(out, finding(prog, pkg, dirs, n.Pos(), RuleNoPanic,
							"panic in engine code; return an error (or //nvlint:ignore with a justification for a true unreachable state)"))
					}
				}
				return true
			})
		}
	}
	return out
}

// finding builds a Finding at pos, pre-resolving any suppression directive.
func finding(prog *program, pkg *Package, dirs *fileDirectives, pos token.Pos, rule, msg string) Finding {
	p := prog.fset.Position(pos)
	f := Finding{File: p.Filename, Line: p.Line, Rule: rule, Msg: msg}
	if dirs != nil {
		if reason, ok := dirs.suppression(rule, p.Line); ok {
			if reason == "" {
				reason = "(no reason given)"
			}
			f.SuppressReason = reason
		}
	}
	return f
}
