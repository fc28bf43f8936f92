package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// checkInterceptor enforces claim-before-mutate on every implementation of
// the configured interceptor interface: the claim method must not mutate
// engine state on any path that can still decline (return handled=false with
// a nil error). A declined op falls through to forwarding, and a mutation
// before the decline would be observed twice or half-applied (error aborts
// are exempt — the transaction settles with the error).
func checkInterceptor(prog *program, cfg *Config, g *callGraph) ([]Finding, error) {
	tryImpls, err := g.resolveRoot(cfg.Interceptor.Iface + ".TryHandle")
	if err != nil {
		return nil, err
	}
	var out []Finding
	mut := computeMutability(prog, g)
	for _, fn := range tryImpls {
		fs, err := checkClaimBeforeMutate(prog, mut, fn)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// checkClaimBeforeMutate flags engine-state mutations in a claim method that
// are control-flow-followed by a decline return.
func checkClaimBeforeMutate(prog *program, mut *mutability, fn *types.Func) ([]Finding, error) {
	fd, ok := prog.funcs[fn]
	if !ok {
		return nil, nil
	}
	pkg := fd.pkg
	dirs := pkg.Directives[fileOf(pkg, fd.decl.Pos())]
	sig := fn.Type().(*types.Signature)
	handledIdx, errIdx := -1, -1
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if handledIdx < 0 {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
				handledIdx = i
			}
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			errIdx = i
		}
	}
	if handledIdx < 0 {
		return nil, fmt.Errorf("lint: interceptor claim method %s has no bool result to read the handled flag from", funcID(fn))
	}

	isDecline := func(ret *ast.ReturnStmt) bool {
		if len(ret.Results) != sig.Results().Len() {
			return false // naked return: cannot prove it declines
		}
		tv, ok := pkg.Info.Types[ret.Results[handledIdx]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool || constant.BoolVal(tv.Value) {
			return false
		}
		if errIdx >= 0 {
			etv, ok := pkg.Info.Types[ret.Results[errIdx]]
			if !ok || !etv.IsNil() {
				return false // declining with an error aborts the transaction
			}
		}
		return true
	}

	muts := mut.mutations(pkg, fd.decl)
	if len(muts) == 0 {
		return nil, nil
	}
	flags := markDeclineAfter(fd.decl.Body, muts, isDecline)
	var out []Finding
	for i, m := range muts {
		if !flags[i] {
			continue
		}
		out = append(out, finding(prog, pkg, dirs, m.pos, RuleInterceptor,
			fmt.Sprintf("%s mutates engine state (%s) on a path that can still decline the op; claim first (or abort with an error) so a declined exit forwards unmodified", funcID(fn), m.desc)))
	}
	return out, nil
}

// markDeclineAfter computes, per mutation, whether a decline return may
// execute after it. It walks statement lists backwards, tracking whether a
// decline is reachable once each statement completes; loop bodies see their
// own declines (the back edge), switch cases are parallel.
func markDeclineAfter(body *ast.BlockStmt, muts []mutation, isDecline func(*ast.ReturnStmt) bool) []bool {
	c := &declineCtx{muts: muts, flags: make([]bool, len(muts)), isDecline: isDecline}
	c.markList(body.List, false)
	return c.flags
}

type declineCtx struct {
	muts      []mutation
	flags     []bool
	isDecline func(*ast.ReturnStmt) bool
}

// declineIn reports whether the subtree holds a decline return.
func (c *declineCtx) declineIn(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if ret, ok := m.(*ast.ReturnStmt); ok && c.isDecline(ret) {
			found = true
		}
		return !found
	})
	return found
}

// flagIn marks every mutation inside the node when a decline may follow.
func (c *declineCtx) flagIn(n ast.Node, after bool) {
	if n == nil || !after {
		return
	}
	for i, m := range c.muts {
		if m.pos >= n.Pos() && m.pos < n.End() {
			c.flags[i] = true
		}
	}
}

func (c *declineCtx) markList(stmts []ast.Stmt, after bool) {
	tail := after
	for i := len(stmts) - 1; i >= 0; i-- {
		c.markStmt(stmts[i], tail)
		tail = tail || c.declineIn(stmts[i])
	}
}

func (c *declineCtx) markStmt(s ast.Stmt, after bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.markList(s.List, after)
	case *ast.LabeledStmt:
		c.markStmt(s.Stmt, after)
	case *ast.IfStmt:
		head := after || c.declineIn(s)
		c.flagIn(s.Init, head)
		c.flagIn(s.Cond, head)
		c.markStmt(s.Body, after)
		if s.Else != nil {
			c.markStmt(s.Else, after)
		}
	case *ast.ForStmt:
		bodyAfter := after || c.declineIn(s.Body)
		c.flagIn(s.Init, after || c.declineIn(s))
		c.flagIn(s.Cond, bodyAfter)
		c.flagIn(s.Post, bodyAfter)
		c.markList(s.Body.List, bodyAfter)
	case *ast.RangeStmt:
		bodyAfter := after || c.declineIn(s.Body)
		c.flagIn(s.X, after || c.declineIn(s))
		c.markList(s.Body.List, bodyAfter)
	case *ast.SwitchStmt:
		head := after || c.declineIn(s)
		c.flagIn(s.Init, head)
		c.flagIn(s.Tag, head)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.markList(cc.Body, after)
			}
		}
	case *ast.TypeSwitchStmt:
		head := after || c.declineIn(s)
		c.flagIn(s.Init, head)
		c.flagIn(s.Assign, head)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.markList(cc.Body, after)
			}
		}
	case *ast.SelectStmt:
		head := after || c.declineIn(s)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				c.flagIn(cc.Comm, head)
				c.markList(cc.Body, after)
			}
		}
	default:
		c.flagIn(s, after)
	}
}
