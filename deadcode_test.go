// Dead-code guard: every package-level identifier and method of module dss
// that code outside the module cannot reach must be referenced by some
// non-test file, or it is dead weight that only tests keep alive; and every
// field of a package-level struct type must be both read and written by
// some non-test file. The check type-checks the module's non-test files
// (and those of benchmark/, whose calls count as uses) with go/types, so it
// is the standard-library cousin of staticcheck's unused analysis.
package dss_test

import (
	"errors"
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dss/stringsort"
)

// deadCodeAllowlist names the unused identifiers and dead fields that
// stay, each with its reason. TestNoDeadCode fails on an entry that is used
// again or that names nothing, so the list can only shrink. Keys are
// package name, then type for a method or field, then identifier.
var deadCodeAllowlist = map[string]string{
	"strutil.ComputeLCPArray":  "oracle: the naive LCP array the wordwise kernels and sorters are checked against",
	"strutil.ValidateLCPArray": "oracle: the naive LCP check behind the strsort and strutil differentials",
	"spill.ReadRunFile":        "oracle: whole-file reader the run scanner's fuzz and round-trip tests compare with",
	"conformance.Run":          "oracle: the transport conformance suite every backend's tests run",

	"merge.sliceSource.touched":     "never read: the sink that keeps the touch-ahead loads from being optimized away",
	"stringsort.Stats.ResentFrames": "never written: always zero since the transport stopped resending; benchmark/probes.go still reads it",
	"input.DNConfig.Seed":           "never read: the D/N generator is deterministic; benchmark/workloads.go still sets it",
	"dupdetect.Options.fixedRange":  "never written outside tests: the differential's hash-range seam",
	"spill.Config.Create":           "never written outside tests: the file-creation fault seam",
}

// The three counts the guard pins. A change that moves one edits its
// constant here and says why in CHANGES.md.
const (
	wantPanicLines   = 78 // lines containing "panic(" in the module's non-test files
	wantConfigFields = 17 // exported fields of stringsort.Config
	wantSharedFlags  = 14 // flags stringsort.RegisterTuningFlags registers
)

func TestNoDeadCode(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	// dead maps every checked key to what is wrong with it, "" for nothing.
	dead := map[string]string{}
	for key, used := range prog.checkedIdents() {
		dead[key] = ""
		if !used {
			dead[key] = "referenced only by tests"
		}
	}
	for key, use := range prog.checkedFields() {
		switch {
		case !use.read:
			dead[key] = "a field no non-test code reads"
		case !use.written:
			dead[key] = "a field no non-test code writes"
		default:
			dead[key] = ""
		}
	}
	keys := make([]string, 0, len(dead))
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := deadCodeAllowlist[key]; !ok && dead[key] != "" {
			t.Errorf("%s: %s; delete it, or add it to deadCodeAllowlist with a reason", key, dead[key])
		}
	}
	for key := range deadCodeAllowlist {
		switch why, ok := dead[key]; {
		case !ok:
			t.Errorf("deadCodeAllowlist entry %s names nothing the guard checks", key)
		case why == "":
			t.Errorf("deadCodeAllowlist entry %s is used by non-test code; drop the entry", key)
		}
	}
}

func TestPinnedCounts(t *testing.T) {
	panics, err := countPanicLines()
	if err != nil {
		t.Fatal(err)
	}
	var fields int
	for _, f := range reflect.VisibleFields(reflect.TypeOf(stringsort.Config{})) {
		if f.IsExported() {
			fields++
		}
	}
	var flags int
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	stringsort.RegisterTuningFlags(fs, &stringsort.Config{})
	fs.VisitAll(func(*flag.Flag) { flags++ })
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"lines with panic( outside tests", panics, wantPanicLines},
		{"exported stringsort.Config fields", fields, wantConfigFields},
		{"flags of RegisterTuningFlags", flags, wantSharedFlags},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, pinned at %d; a change that moves it edits the constant and says why in CHANGES.md",
				c.what, c.got, c.want)
		}
	}
}

// unit is one type-checked package: its import path, its type information
// and its files.
type unit struct {
	ipath string
	info  *types.Info
	files []*ast.File
}

// program is the type-checked non-test code of module dss plus benchmark/.
type program struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	units []unit
	std   types.Importer
}

// packageDirs maps the import path of every directory of the module (the
// test runs at its root) to the directory, skipping the ones the go
// command ignores.
func packageDirs() (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs[path.Join("dss", filepath.ToSlash(dir))] = dir
		return nil
	})
	return dirs, err
}

// inBenchmark reports whether ipath belongs to benchmark/, a module of its
// own whose calls into dss/internal/... count as uses but whose
// identifiers the guard does not check.
func inBenchmark(ipath string) bool {
	return strings.HasPrefix(ipath+"/", "dss/benchmark/")
}

// loadProgram type-checks every package of the module. go/build picks each
// package's non-test files under the default build constraints.
func loadProgram() (*program, error) {
	dirs, err := packageDirs()
	if err != nil {
		return nil, err
	}
	p := &program{
		fset: token.NewFileSet(),
		dirs: dirs,
		pkgs: map[string]*types.Package{},
		std:  importer.Default(),
	}
	for ipath := range dirs {
		var noGo *build.NoGoError
		if _, err := p.Import(ipath); err != nil && !errors.As(err, &noGo) {
			return nil, err
		}
	}
	return p, nil
}

// Import type-checks a package of the tree from source, once, and hands
// every other import path to the compiler's export data.
func (p *program) Import(ipath string) (*types.Package, error) {
	dir, ok := p.dirs[ipath]
	if !ok {
		return p.std.Import(ipath)
	}
	if pkg, ok := p.pkgs[ipath]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},

		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(ipath, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[ipath] = pkg
	p.units = append(p.units, unit{ipath, info, files})
	return pkg, nil
}

// checkedIdents maps the key of every checked identifier to whether some
// non-test file uses it. An identifier is checked when code outside the module cannot reach it:
// anything under internal/ or in a main package, and anything unexported. A
// method is used, too, when its type (or a pointer to it) implements an
// interface with that method that the program's code mentions, since a
// call through the interface does not name the method.
func (p *program) checkedIdents() map[string]bool {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	instances := map[*types.Named][]*types.Named{} // origin -> instances seen
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if o := t.Origin(); o != t {
				instances[o] = append(instances[o], t)
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				walk(it)
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces[t] = true
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, u := range p.units {
		info := u.info
		for _, obj := range info.Uses {
			used[origin(obj)] = true
			walk(obj.Type())
		}
		for _, obj := range info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, tv := range info.Types {
			walk(tv.Type)
		}
	}
	satisfies := func(named *types.Named, m *types.Func) bool {
		recvs := instances[named]
		if named.TypeParams().Len() == 0 {
			recvs = append(recvs, named)
		}
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			for _, r := range recvs {
				if types.Implements(r, it) || types.Implements(types.NewPointer(r), it) {
					return true
				}
			}
		}
		return false
	}

	idents := map[string]bool{}
	for ipath, pkg := range p.pkgs {
		if inBenchmark(ipath) {
			continue
		}
		prefix := pkg.Name()
		if prefix == "main" {
			prefix = strings.TrimPrefix(ipath, "dss/")
		}
		public := pkg.Name() != "main" && !strings.HasPrefix(ipath, "dss/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "init" || name == "_" || (name == "main" && pkg.Name() == "main") {
				continue
			}
			if !(public && obj.Exported()) {
				idents[prefix+"."+name] = used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if public && obj.Exported() && m.Exported() {
					continue
				}
				idents[prefix+"."+name+"."+m.Name()] = used[m] || satisfies(named, m)
			}
		}
	}
	return idents
}

// fieldUse is how non-test code uses a struct field.
type fieldUse struct{ read, written bool }

// checkedFields maps the key of every field of a package-level struct type
// of the module (benchmark/ aside) to how the program's code uses it. A
// field is written when it is assigned (also by an op-assignment or ++/--,
// or through an index or a nested selector: x.f[i] = v and x.f.g = v write
// f), set in a composite literal, has its address taken or has a method
// called on it; it is read by every other use, and also when its address
// is taken or a method is called on it. A selection through an embedded
// field uses that field the same way. Three kinds of fields count as read
// without a use: the fields of a struct used as a map key (the map
// compares them), exported fields of exported types of a public package
// (callers outside the module read them), and fields with a struct tag,
// which reflection reads and fills (they count as written too).
func (p *program) checkedFields() map[string]fieldUse {
	keys := map[*types.Var]string{}
	uses := map[string]fieldUse{}
	for _, u := range p.units {
		if inBenchmark(u.ipath) {
			continue
		}
		pkg := p.pkgs[u.ipath]
		prefix := pkg.Name()
		if prefix == "main" {
			prefix = strings.TrimPrefix(u.ipath, "dss/")
		}
		public := pkg.Name() != "main" && !strings.HasPrefix(u.ipath, "dss/internal/")
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" {
					continue
				}
				key := prefix + "." + name + "." + f.Name()
				keys[f] = key
				tagged := st.Tag(i) != ""
				uses[key] = fieldUse{read: tagged || public && tn.Exported() && f.Exported(), written: tagged}
			}
		}
	}
	mark := func(f *types.Var, read, written bool) {
		if key, ok := keys[origin(f).(*types.Var)]; ok {
			u := uses[key]
			u.read, u.written = u.read || read, u.written || written
			uses[key] = u
		}
	}
	for _, u := range p.units {
		info := u.info
		// The selectors that are only written, and those whose address is
		// taken or that a method is called on.
		writeOnly := map[*ast.SelectorExpr]bool{}
		both := map[*ast.SelectorExpr]bool{}
		var lhs func(e ast.Expr)
		lhs = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
					writeOnly[e] = true
					lhs(e.X)
				}
			case *ast.IndexExpr:
				lhs(e.X)
			}
		}
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if x, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
						both[x] = true
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
						if x, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
							both[x] = true
						}
					}
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(f, false, true)
							}
						} else {
							mark(st.Field(i), false, true)
						}
					}
				}
				return true
			})
		}
		for e, sel := range info.Selections {
			if sel.Kind() != types.FieldVal {
				continue
			}
			read, written := !writeOnly[e] || both[e], writeOnly[e] || both[e]
			// Walk the path from the receiver through any embedded fields
			// to the selected one.
			t := sel.Recv()
			for _, i := range sel.Index() {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				mark(f, read, written)
				t = f.Type()
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				if st, ok := m.Key().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i), true, false)
					}
				}
			}
		}
	}
	return uses
}

// origin maps a use of an instantiated generic function, method or field
// back to the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// countPanicLines counts the lines that contain "panic(" in the non-test Go
// files of module dss, whatever their build constraints.
func countPanicLines() (int, error) {
	dirs, err := packageDirs()
	if err != nil {
		return 0, err
	}
	n := 0
	for ipath, dir := range dirs {
		if inBenchmark(ipath) {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				return 0, err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "panic(") {
					n++
				}
			}
		}
	}
	return n, nil
}
