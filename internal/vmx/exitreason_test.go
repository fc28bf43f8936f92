package vmx

import (
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestExitReasonsDense guards the dense per-reason index space that stats
// tables and plan-table rows are sized by. It type-checks this package's
// source and requires every declared ExitReason constant to be distinct, to
// lie below NumReasonIndexes, and to be listed by AllReasons. A duplicate
// value or one past the bound would make Index merge two reasons into one
// table row without any other check noticing.
func TestExitReasonsDense(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("vmx", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	reasonType := pkg.Scope().Lookup("ExitReason").Type()

	declared := map[ExitReason]string{}
	for _, name := range pkg.Scope().Names() {
		c, ok := pkg.Scope().Lookup(name).(*types.Const)
		if !ok || c.Type() != reasonType {
			continue
		}
		v, exact := constant.Uint64Val(c.Val())
		if !exact || v >= NumReasonIndexes {
			t.Errorf("%s = %s lies outside the dense index space [0, %d)", name, c.Val(), NumReasonIndexes)
			continue
		}
		r := ExitReason(v)
		if prev, dup := declared[r]; dup {
			t.Errorf("%s and %s share dense index %d", prev, name, v)
			continue
		}
		declared[r] = name
	}

	listed := AllReasons()
	for _, r := range listed {
		if _, ok := declared[r]; !ok {
			t.Errorf("AllReasons lists %v, which no ExitReason constant declares", r)
		}
	}
	if len(listed) != len(declared) {
		t.Errorf("AllReasons lists %d reasons, the package declares %d", len(listed), len(declared))
	}
}
