package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// sortFuncs are the deterministic-ordering calls that discharge an
// accumulation hazard when applied to the accumulator after the loop.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// fmtEmitters write output directly; inside a map range their line order is
// random per run.
var fmtEmitters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": false, // pure, order captured by the caller
}

// recordSinks are method names that append records or samples to a
// collector; feeding them in map order makes replay output nondeterministic
// (the hazard class that would silently break group-parallel ≡ serial).
var recordSinks = map[string]bool{
	"Add": true, "Record": true, "Observe": true, "Emit": true, "Write": true,
}

// Maprange flags for-range loops over maps whose bodies accumulate into a
// slice, write records, or emit output, without a subsequent deterministic
// sort of the accumulator in the same function. Go randomizes map iteration
// order per run, so any of these leaks nondeterminism into replay output.
// Map-to-map copies and aggregations (m2[k] = v, counters) are
// order-independent and stay silent.
type Maprange struct{}

// NewMaprange returns the checker.
func NewMaprange() *Maprange { return &Maprange{} }

// Name implements analysis.Checker.
func (m *Maprange) Name() string { return "maprange" }

// Doc implements analysis.Checker.
func (m *Maprange) Doc() string {
	return "flags map iteration that appends, records or emits without a deterministic sort"
}

// Run implements analysis.Checker.
func (m *Maprange) Run(p *analysis.Pass) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if rs, ok := n.(*ast.RangeStmt); ok {
				m.checkRange(p, rs, stack)
			}
			return true
		})
	}
}

// checkRange inspects one range statement; stack holds its ancestors
// (innermost last), used to locate the enclosing function body.
func (m *Maprange) checkRange(p *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	encl := enclosingFuncBody(stack)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			if bi, ok := p.Info.Uses[fun].(*types.Builtin); ok && bi.Name() == "append" && len(call.Args) > 0 {
				target := accumulatorObj(p.Info, call.Args[0])
				if target == nil || within(target.Pos(), rs) {
					return true
				}
				if !sortedAfter(p, encl, rs.End(), target) {
					p.Reportf(m.Name(), call.Pos(),
						"append to %q inside map iteration without a subsequent deterministic sort: map order is random per run", target.Name())
				}
			}
		case *ast.SelectorExpr:
			if pkgPath, name, _, ok := pkgFuncRef(p.Info, fun); ok {
				if pkgPath == "fmt" && fmtEmitters[name] {
					p.Reportf(m.Name(), call.Pos(),
						"fmt.%s inside map iteration emits lines in random map order: collect and sort keys first", name)
				}
				return true
			}
			if recordSinks[fun.Sel.Name] && !isSyncMethod(p.Info, fun) {
				p.Reportf(m.Name(), call.Pos(),
					"%s inside map iteration writes records in random map order: iterate sorted keys instead", fun.Sel.Name)
			}
		}
		return true
	})
}

// accumulatorObj resolves an append target (plain identifier or field
// selector) to its object.
func accumulatorObj(info *types.Info, e ast.Expr) types.Object {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[v]
	case *ast.SelectorExpr:
		return info.Uses[v.Sel]
	}
	return nil
}

// within reports whether pos falls inside the range statement.
func within(pos token.Pos, rs *ast.RangeStmt) bool {
	return pos >= rs.Pos() && pos <= rs.End()
}

// enclosingFuncBody returns the innermost enclosing function body from an
// ancestor stack, or nil at file scope.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// sortedAfter reports whether the enclosing function body contains, after
// the loop, a sort call whose arguments reference the accumulator — the
// canonical collect-then-sort repair.
func sortedAfter(p *analysis.Pass, encl *ast.BlockStmt, after token.Pos, target types.Object) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		fun, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name, _, ok := pkgFuncRef(p.Info, fun)
		if !ok || !sortFuncs[pkgPath][name] {
			return true
		}
		for _, arg := range call.Args {
			if accumulatorObj(p.Info, arg) == target {
				found = true
			}
		}
		return true
	})
	return found
}

// isSyncMethod reports whether the selector resolves to a method of a
// package sync type (WaitGroup.Add and friends are order-independent).
func isSyncMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync"
}
