package plinius_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal/ identifiers that no
// non-test file uses but that tests in another package need. Each entry
// is "pkg.Name" or "pkg.Type.Method", and its reason names the test
// that calls it. A name only its own package's tests use belongs in
// that package's export_test.go instead.
var surfaceAllowlist = map[string]string{
	"chaos.DropFirst":             "fleet TestHandoffRetriesThroughTransientDrops scripts hand-off drops",
	"chaos.DropEvery":             "fleet TestKillHostUnderLoadZeroDrops scripts periodic hand-off drops",
	"core.Framework.Classify":     "plinius.Framework.Classify (root API); TestPublicAPIServe and fleet TestFleetServesOverEPCModelZeroFaults classify against it",
	"core.Framework.Key":          "serve TestRotateKeyServesThroughRotation checks the data key changed",
	"enclave.Host.Kill":           "fleet TestKillHostUnderLoadZeroDrops and serve TestFleetServingSurvivesHostKill kill a host",
	"enclave.Host.Rejoin":         "fleet TestRejoinPromotesToOriginalResidentPlacement brings a killed host back",
	"engine.WithRand":             "mirror TestMirrorInRejectsWrongKey seeds the engine's IVs",
	"fleet.Fleet.Rejoin":          "serve TestFleetServingSurvivesHostKill re-admits the host (serve's export_test FleetRejoin)",
	"mirror.DataMatrix.Encrypted": "core TestPlaintextDataMode checks the rows were loaded unsealed",
	"mirror.DataMatrix.Row":       "core TestCrashSweep reads every row after a crashed load or rotation",
	"mirror.Opener.SegmentAt":     "core TestShardGroupEquivalence flips a byte of a sealed weight segment",
	"obs.Tracer.Active":           "serve TestTraceLifecycleAllExitPaths asserts every exit path finishes its trace",
	"pm.Device.CrashAt":           "romulus TestCrashSweepChunkedPropagation and core TestCrashSweep crash a writer at each persistence event",
	"pm.Device.DirtyLines":        "romulus TestCrashSweepChunkedPropagation asserts a commit leaves no dirty line",
	"pm.Device.Stats":             "romulus TestStatsFourFencesScaleWithTransactions and core TestCrashSweep count fences and stores",
}

// TestExportedSurfaceHasUsers fails on any exported package-level name
// or method under internal/ that no non-test file references. Files are
// picked by go/build for the host platform, and the root package, cmd/,
// examples/, internal/ and the benchmark module all count as users.
// Methods that satisfy an interface and String methods are exempt.
func TestExportedSurfaceHasUsers(t *testing.T) {
	unused, stale, err := unusedSurface(".", surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: exported %s has no non-test reference: delete it, move it to export_test.go, or allowlist it with the out-of-package test that needs it", u.pos, u.name)
	}
	for _, name := range stale {
		t.Errorf("allowlist entry %s names no unused exported identifier: drop the entry", name)
	}
}

// TestSurfaceGuardFlagsFixture runs the checker on a fixture module, so
// the guard cannot pass by finding nothing.
func TestSurfaceGuardFlagsFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "io"

type T struct{}

func New() *T { return &T{} }

func (t *T) Used() int { return 1 }

func (t *T) UnusedMethod() {}

func (t *T) Write(p []byte) (int, error) { return len(p), nil }

func (t *T) String() string { return "t" }

func Unused() {}

func Hook() {}

var _ io.Writer = (*T)(nil)
`,
		"internal/lib/lib_test.go": `package lib

func init() { Unused(); New().UnusedMethod() }
`,
		"cmd/app/main.go": `package main

import "fixture/internal/lib"

func main() { _ = lib.New().Used() }
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, stale, err := unusedSurface(dir, map[string]string{"lib.Hook": "fixture allowlist entry", "lib.New": "used, so stale"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 || stale[0] != "lib.New" {
		t.Errorf("stale allowlist entries %v, want [lib.New]", stale)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.name+" at "+u.pos)
	}
	want := []string{
		"lib.T.UnusedMethod at internal/lib/lib.go:11",
		"lib.Unused at internal/lib/lib.go:17",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fixture findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unusedName is one finding: the identifier and its file:line relative
// to the checked root.
type unusedName struct{ name, pos string }

// surfacePkg is one loaded package: its non-test files for the host
// platform, parsed and type-checked.
type surfacePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// unusedSurface loads every Go package under root (each go.mod below it
// starts a module), type-checks their non-test files and returns the
// exported names and methods declared under <module>/internal/ that no
// non-test file references and allow does not name, sorted by position,
// and the entries of allow that name no such identifier, sorted.
func unusedSurface(root string, allow map[string]string) (unused []unusedName, stale []string, err error) {
	fset := token.NewFileSet()
	pkgs, err := loadSurface(fset, root)
	if err != nil {
		return nil, nil, err
	}

	used := map[types.Object]bool{}
	var universe []*types.Package
	for _, p := range pkgs {
		universe = append(universe, p.types)
		for _, file := range p.files {
			own := ownRanges(file, p.info)
			for id, obj := range p.info.Uses {
				if self, ok := own[origin(obj)]; ok && self.Pos() <= id.Pos() && id.Pos() < self.End() {
					continue
				}
				used[origin(obj)] = true
			}
		}
	}
	ifaces := interfaces(universe)

	allowed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		for _, file := range p.files {
			for _, obj := range declared(file, p.info) {
				name := obj.Pkg().Name() + "." + obj.Name()
				if fn, ok := obj.(*types.Func); ok {
					recv := fn.Type().(*types.Signature).Recv()
					if recv != nil {
						named := receiverNamed(recv.Type())
						name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
						if fn.Name() == "String" || satisfies(named, fn.Name(), ifaces) {
							continue
						}
					}
				}
				if used[obj] {
					continue
				}
				if _, ok := allow[name]; ok {
					allowed[name] = true
					continue
				}
				pos := fset.Position(obj.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					return nil, nil, err
				}
				unused = append(unused, unusedName{name, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)})
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].pos < unused[j].pos })
	for name := range allow {
		if !allowed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return unused, stale, nil
}

// loadSurface parses and type-checks every package under root, standard
// library imports from export data and module imports from source.
func loadSurface(fset *token.FileSet, root string) ([]*surfacePkg, error) {
	modules := map[string]string{} // module dir → module path
	byPath := map[string]*surfacePkg{}
	var order []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
			line, _, _ := strings.Cut(string(mod), "\n")
			modules[path] = strings.TrimSpace(strings.TrimPrefix(line, "module"))
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		importPath := ""
		for dir := path; ; dir = filepath.Dir(dir) {
			if mod, ok := modules[dir]; ok {
				rel, _ := filepath.Rel(dir, path)
				importPath = strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/.")
				break
			}
			if dir == root || dir == filepath.Dir(dir) {
				return fmt.Errorf("%s: no go.mod above it", path)
			}
		}
		p := &surfacePkg{path: importPath}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		byPath[importPath] = p
		order = append(order, importPath)
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	var imp importerFunc
	checking := map[string]bool{}
	imp = func(path string) (*types.Package, error) {
		p, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		if p.types != nil {
			return p.types, nil
		}
		if checking[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		checking[path] = true
		p.info = &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	pkgs := make([]*surfacePkg, 0, len(order))
	for _, path := range order {
		if _, err := imp(path); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, byPath[path])
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declared lists the exported package-level names and methods a file
// declares.
func declared(file *ast.File, info *types.Info) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.IsExported() {
			if obj := info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return objs
}

// ownRanges maps each object a file declares to the syntax that
// declares it, so a function calling itself or a type naming itself
// does not count as a user. A method's receiver type counts as part of
// its type's own declaration.
func ownRanges(file *ast.File, info *types.Info) map[types.Object]ast.Node {
	own := map[types.Object]ast.Node{}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			own[info.Defs[d.Name]] = d
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj, ok := info.Uses[id].(*types.TypeName); ok {
							own[obj] = d.Recv
						}
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if _, ok := own[info.Defs[s.Name]]; !ok {
						own[info.Defs[s.Name]] = s
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						own[info.Defs[id]] = s
					}
				}
			}
		}
	}
	return own
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaces collects every named interface type declared at package
// level in pkgs and everything they import, plus error.
func interfaces(pkgs []*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return ifaces
}

// satisfies reports whether T or *T implements an interface that has a
// method called name.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(t, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}
