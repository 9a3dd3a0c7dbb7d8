package rpg2_test

import (
	"cmp"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptWithoutProductCaller is every exported name under internal/ and
// cmd/internal/ that no non-test file of the module uses, with the reason it
// stays. The rule for any other such name: nothing calls it, or only its own
// test checks it, so it is deleted (with that test); or it is a witness its
// own package's tests use, so it moves into that package's _test.go. What is
// left is kit other packages' tests share, and reference code.
var keptWithoutProductCaller = map[string]string{
	"internal/cache.Hierarchy.Reset":           "cpu's shared-core test reuses one hierarchy across rounds, as a fresh one",
	"internal/faults.DiskInjector.ByOp":        "crash kit: fleet's chaos suite tallies injected disk faults per operation",
	"internal/faults.DiskInjector.TornTail":    "crash kit: fleet's chaos suite draws the tear its simulated crash makes",
	"internal/faults.InjectedNet":              "crash kit: fleetclient's chaos test tells an injected network fault from an organic one",
	"internal/faults.NetInjector.Injected":     "crash kit: fleetd's chaos tests check that faults were injected at all",
	"internal/faults.NetInjector.Transport":    "crash kit: fleetclient's tests inject client-side network faults",
	"internal/isa.Asm.Load":                    "assembler opcode only tests emit (bolt, cpu, proc); the builders index with LoadIdx",
	"internal/isa.Asm.Pop":                     "assembler opcode only cpu's tests emit (stack spills)",
	"internal/isa.Asm.Prefetch":                "assembler opcode only cpu's tests emit; the BOLT pass emits prefetches as Instr",
	"internal/isa.Asm.Push":                    "assembler opcode only cpu's tests emit (stack spills)",
	"internal/isa.Asm.Sub":                     "assembler opcode only cpu's tests emit",
	"internal/isa.Asm.SubImm":                  "assembler opcode only bolt's and cpu's tests emit",
	"internal/isa.Binary.FuncAt":               "reference for proc's symbol lookup; workloads' tests resolve WorkPC with it",
	"internal/isa.Cond.Holds":                  "reference code: the reference interpreter's condition evaluator",
	"internal/isa.Instr.Uses":                  "reference code: the def/use specification cpu's reference fuzz rig checks register fields against",
	"internal/isa.MakeNop":                     "proc's and cpu's tests pad and poke text with it",
	"internal/mem.AddrSpace.MapAt":             "cpu's tests map data at a chosen base; mem's page-index fuzz maps at edges",
	"internal/mem.AddrSpace.Mapped":            "reference code: cpu's reference interpreter faults unmapped accesses with it",
	"internal/store/storetest.Run":             "the store-semantics contract store's and remote's tests both run",
	"internal/stored.Server.Store":             "remote's and fleet's tests read the daemon's store beside the client's view",
	"internal/wal.Log.AbortTorn":               "crash kit: fleet's chaos suite tears the journal's tail as a power cut would",
	"internal/workloads.Workload.SpawnWorkers": "proc's pinned two-thread run and workloads' parallel tests spawn threads with it",
}

// TestEveryExportHasAProductCaller type-checks every package of the module
// from source, non-test files only, and fails on an exported name under
// internal/ or cmd/internal/ that nothing uses unless the allowlist above
// names it. Methods that satisfy an interface and constants that are their
// type's zero value are skipped: their callers are dynamic or their use is
// implicit.
func TestEveryExportHasAProductCaller(t *testing.T) {
	c := checkModule(t)

	// errors.Is, As and Unwrap call these methods through interfaces the
	// errors package declares inline, out of the scope's reach.
	inline, err := parser.ParseFile(c.fset, "inline.go", `package inline
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
type unwrap interface{ Unwrap() error }`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.imported["errors (inline)"], err = new(types.Config).Check("inline", c.fset, []*ast.File{inline}, nil); err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, info := range c.infos {
		for _, obj := range info.Uses {
			used[obj] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range c.imported {
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	satisfies := func(fn *types.Func, recv types.Type) bool {
		for _, it := range ifaces {
			if hasMethod(it, fn.Name()) && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
		return false
	}

	var missing []string
	seen := map[string]bool{}
	for _, path := range c.order {
		dir := strings.TrimPrefix(path, "rpg2/")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/internal/") {
			continue
		}
		for _, obj := range c.infos[path].Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				continue
			}
			if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
				continue // declared inside a function
			}
			var name string
			switch obj := obj.(type) {
			case *types.Func:
				sig := obj.Type().(*types.Signature)
				if sig.Recv() == nil {
					name = obj.Name()
					break
				}
				recv := sig.Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || !named.Obj().Exported() || types.IsInterface(named) || satisfies(obj, recv) {
					continue
				}
				name = named.Obj().Name() + "." + obj.Name()
			case *types.Const:
				if _, ok := obj.Type().(*types.Named); ok && isZero(obj.Val()) {
					continue
				}
				name = obj.Name()
			case *types.TypeName, *types.Var:
				name = obj.Name()
			default:
				continue
			}
			name = dir + "." + name
			seen[name] = true
			if _, ok := keptWithoutProductCaller[name]; !ok {
				missing = append(missing, name)
			}
		}
	}
	for name := range keptWithoutProductCaller {
		if !seen[name] {
			t.Errorf("%s is allowlisted but has a product caller now, or is gone: drop it from keptWithoutProductCaller", name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside tests: delete it, move it into its package's _test.go, or allowlist it with a reason", name)
	}
	t.Logf("%d exported names kept without a product caller (allowlisted), %d packages checked",
		len(keptWithoutProductCaller), len(c.order))
}

// writtenWithoutReader is every struct field under internal/ and
// cmd/internal/ that non-test code writes and never reads, with the reason
// it stays: a witness its package's tests check, or a field of a type the
// module encodes as JSON without a tag.
var writtenWithoutReader = map[string]string{
	"internal/admission.Decision.HalfOpen":  "admission's breaker tests check that a dispatch is the half-open probe",
	"internal/admission.Item.ID":            "admission's tests check dispatch order by item",
	"internal/baselines.Sweep.BaselineRate": "JSON: fleetd's result body encodes the sweep",
	"internal/bolt.Site.KernelOffset":       "JSON: the journal's reports encode their sites; bolt's and rpg2's tests locate the kernel with it",
	"internal/bolt.Site.Spilled":            "JSON: the journal's reports encode their sites; bolt's tests check the spill",
	"internal/bolt.Site.ViaStack":           "JSON: the journal's reports encode their sites; bolt's tests check the stack-slot slice",
	"internal/cache.Result.Level":           "cache's tests check which level served an access",
	"internal/cache.Stats.DroppedPF":        "prefetch counter: proc's pinned state digests all 13 Stats fields; ROADMAP item 6 surfaces it",
	"internal/cache.Stats.LatePF":           "prefetch counter: proc's pinned state digests all 13 Stats fields; ROADMAP item 6 surfaces it",
	"internal/cache.Stats.SWPrefetches":     "prefetch counter: proc's pinned state digests all 13 Stats fields; ROADMAP item 6 surfaces it",
	"internal/cache.Stats.TimelyPF":         "prefetch counter: proc's pinned state digests all 13 Stats fields; ROADMAP item 6 surfaces it",
	"internal/cache.Stats.UselessPF":        "prefetch counter: proc's pinned state digests all 13 Stats fields; ROADMAP item 6 surfaces it",
	"internal/fleet.pendingSession.oldID":   "fleet's recovery tests map each re-admission back to its pre-crash session",
	"internal/perf.PEBSRecord.Addr":         "a PEBS record carries the data address (DESIGN.md §1); perf's tests check it",
	"internal/rpg2.Report.BestIPC":          "JSON: cmd/rpg2 -json and the journal encode the report; rpg2's tests check it",
}

// TestEveryFieldHasAReader fails on a struct field declared under internal/
// or cmd/internal/ that the module's non-test code writes (an assignment or
// ++/-- target, or a composite-literal key) and never otherwise reads,
// unless the allowlist above names it. A field with a struct tag is read by
// its encoder, and an embedded field by its promoted selectors, so both are
// skipped.
func TestEveryFieldHasAReader(t *testing.T) {
	c := checkModule(t)
	names := map[*types.Var]string{} // every field the rule covers, by its name in the allowlist
	written := map[*ast.Ident]bool{}
	for _, path := range c.order {
		dir := strings.TrimPrefix(path, "rpg2/")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/internal/") {
			dir = ""
		}
		info := c.infos[path]
		for _, f := range c.files[path] {
			owner := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name
					}
				case *ast.StructType:
					for _, fd := range n.Fields.List {
						if dir == "" || fd.Tag != nil {
							continue
						}
						for _, id := range fd.Names {
							if v, ok := info.Defs[id].(*types.Var); ok && id.Name != "_" {
								names[v] = dir + "." + cmp.Or(owner[n], "struct") + "." + id.Name
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel.Sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						written[sel.Sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
	}
	writes, reads := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, info := range c.infos {
		for id, obj := range info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if written[id] {
					writes[v.Origin()] = true
				} else {
					reads[v.Origin()] = true
				}
			}
		}
	}
	var missing []string
	seen := map[string]bool{}
	for v, name := range names {
		if !writes[v] || reads[v] {
			continue
		}
		seen[name] = true
		if _, ok := writtenWithoutReader[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range writtenWithoutReader {
		if !seen[name] {
			t.Errorf("%s is allowlisted but has a reader now, or is gone: drop it from writtenWithoutReader", name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is written and never read outside tests: delete it, or allowlist it with a reason", name)
	}
	t.Logf("%d struct fields kept without a reader (allowlisted), %d packages checked",
		len(writtenWithoutReader), len(c.order))
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Bool:
		return !constant.BoolVal(v)
	}
	return false
}

// moduleChecker type-checks the module's packages from source, importing
// the standard library through the source importer.
type moduleChecker struct {
	t        *testing.T
	fset     *token.FileSet
	std      types.ImporterFrom
	pkgs     map[string]*types.Package // by import path; nil for a dir with no Go package
	infos    map[string]*types.Info
	files    map[string][]*ast.File
	imported map[string]*types.Package // what the module imports from outside it, and errors' inline interfaces
	order    []string
}

// module is the type-checked module both scans read, checked once per test
// binary.
var module struct {
	once sync.Once
	c    *moduleChecker
}

// checkModule type-checks every package of the module, non-test files only.
func checkModule(t *testing.T) *moduleChecker {
	module.once.Do(func() { module.c = loadModule(t) })
	if module.c == nil {
		t.Fatal("the module did not type-check")
	}
	return module.c
}

func loadModule(t *testing.T) *moduleChecker {
	c := &moduleChecker{
		t:        t,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*types.Package{},
		infos:    map[string]*types.Info{},
		files:    map[string][]*ast.File{},
		imported: map[string]*types.Package{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		c.check(path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, ".", 0)
}

func (c *moduleChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "rpg2" || strings.HasPrefix(path, "rpg2/") {
		return c.check(strings.TrimPrefix(strings.TrimPrefix(path, "rpg2"), "/")), nil
	}
	pkg, err := c.std.ImportFrom(path, dir, mode)
	if err == nil {
		c.imported[path] = pkg
	}
	return pkg, err
}

// check type-checks the non-test files of the package in dir (relative to
// the module root) once and returns it; nil if dir holds no Go package.
func (c *moduleChecker) check(dir string) *types.Package {
	if dir == "" {
		dir = "."
	}
	path := "rpg2"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	if pkg, ok := c.pkgs[path]; ok {
		return pkg
	}
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		c.pkgs[path] = nil
		return nil
	}
	if err != nil {
		c.t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			c.t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		c.t.Fatalf("type-check %s: %v", path, err)
	}
	c.pkgs[path], c.infos[path], c.files[path] = pkg, info, files
	c.order = append(c.order, path)
	return pkg
}
