// Dead-code guard: every package-level identifier and method of module dss
// that code outside the module cannot reach must be referenced by some
// non-test file, or it is dead weight that only tests keep alive. The check
// type-checks the module's non-test files (and those of benchmark/, whose
// calls count as uses) with go/types, so it is the standard-library cousin
// of staticcheck's unused analysis.
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

// deadCodeAllowlist names the unused identifiers that stay, each with its
// reason. TestNoDeadCode fails on an entry that is referenced again or that
// names nothing, so the list can only shrink. Keys are package name, then
// type for a method, then identifier.
var deadCodeAllowlist = map[string]string{
	"strutil.ComputeLCPArray":  "oracle: the naive LCP array the wordwise kernels and sorters are checked against",
	"strutil.ValidateLCPArray": "oracle: the naive LCP check behind the strsort and strutil differentials",
	"wire.EncodeStringsLCP":    "oracle: one-shot encoder the streaming run cursor and the Set encoders are diffed against",
	"spill.ReadRunFile":        "oracle: whole-file reader the run scanner's fuzz and round-trip tests compare with",
	"conformance.Run":          "oracle: the transport conformance suite every backend's tests run",
}

// The three counts the guard pins. A change that moves one edits its
// constant here and says why in CHANGES.md.
const (
	wantPanicLines   = 87 // lines containing "panic(" in the module's non-test files
	wantConfigFields = 20 // exported fields of stringsort.Config
	wantSharedFlags  = 16 // flags stringsort.RegisterTuningFlags registers
)

func TestNoDeadCode(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	idents := prog.checkedIdents()
	keys := make([]string, 0, len(idents))
	for key := range idents {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := deadCodeAllowlist[key]; !ok && !idents[key] {
			t.Errorf("%s: referenced only by tests; delete it, or add it to deadCodeAllowlist with a reason", key)
		}
	}
	for key := range deadCodeAllowlist {
		switch used, ok := idents[key]; {
		case !ok:
			t.Errorf("deadCodeAllowlist entry %s names nothing the guard checks", key)
		case used:
			t.Errorf("deadCodeAllowlist entry %s is referenced by non-test code; drop the entry", key)
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

// program is the type-checked non-test code of module dss plus benchmark/.
type program struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	infos []*types.Info
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
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(ipath, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	p.pkgs[ipath] = pkg
	p.infos = append(p.infos, info)
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
	for _, info := range p.infos {
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
