// Command reachgate is CI's reachability gate. It type-checks every non-test
// package of the module, walks references from the roots — main, every
// declaration in bench/ (which changes only with the benchmark), the
// exported API of package easeml, and the init funcs and blank vars of
// every package those import — and fails on each package-level func,
// method, type, var and const that nothing reached and the allowlist does
// not name.
//
// Usage, from the repository root:
//
//	go run ./tools/reachgate -allowlist tools/reachgate/allowlist.txt
//
// A method is reached when something reached names it, or when its type is
// reached and the method satisfies an interface the module declares or
// imports (fmt.Stringer, json.Marshaler, the module's own): such a call
// goes through an interface value this walk does not follow. An unreached
// type is reported alone; its methods go with it.
//
// The allowlist takes one identifier per line, then the reason it stays:
//
//	internal/bandit.RegretTracker  the §5 tests' regret reference
//	internal/gp.GP.Prior  ...
//
// An allowlisted identifier keeps what it references, and an allowlisted
// type keeps its methods. An entry a root reaches, one that names nothing
// and one without a reason each fail the gate, so the list only shrinks.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allowPath := flag.String("allowlist", "tools/reachgate/allowlist.txt", "committed allowlist of unreached identifiers")
	flag.Parse()
	os.Exit(run(".", *allowPath, os.Stdout, os.Stderr))
}

// run gates the module rooted at dir against the allowlist at allowPath,
// writing the summary to out and failures to errOut. It returns 0 when the
// gate passes, 1 when it fails and 2 when the inputs cannot be read.
func run(dir, allowPath string, out, errOut io.Writer) int {
	allow, err := readAllowlist(allowPath)
	if err == nil {
		var m *module
		if m, err = load(dir); err == nil {
			return m.gate(allow, allowPath, out, errOut)
		}
	}
	fmt.Fprintf(errOut, "reachgate: %v\n", err)
	return 2
}

type entry struct {
	name, reason string
	line         int
}

// readAllowlist reads "identifier reason" lines, skipping blank lines and
// # comments.
func readAllowlist(path string) ([]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var list []entry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			name, reason, _ := strings.Cut(line, " ")
			list = append(list, entry{name: name, reason: strings.TrimSpace(reason), line: n})
		}
	}
	return list, sc.Err()
}

// module is the type-checked module and the reference graph over its
// package-level objects.
type module struct {
	path, dir string
	fset      *token.FileSet
	std       types.ImporterFrom
	pkgs      map[string]*pkg // by import path; nil while being checked

	decls  []types.Object // in package, then source order
	deps   map[types.Object][]types.Object
	byName map[string]types.Object
	ifaces map[string][]*types.Interface // every known interface, by method name
}

type pkg struct {
	rel   string // directory relative to the module root, "/"-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (p *pkg) frozen() bool { return p.rel == "bench" || strings.HasPrefix(p.rel, "bench/") }

// load type-checks every non-test package under dir, the standard library
// from source, and builds the reference graph.
func load(dir string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{dir: dir, fset: token.NewFileSet(), pkgs: map[string]*pkg{},
		deps: map[types.Object][]types.Object{}, byName: map[string]types.Object{}, ifaces: map[string][]*types.Interface{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", dir)
	}
	// The pure-Go standard library: no C toolchain, the same files on every
	// machine.
	build.Default.CgoEnabled = false
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(dir, path)
		ip := strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/.")
		if _, err := m.check(ip); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.link()
	return m, nil
}

// check type-checks the module package at import path ip, once.
func (m *module) check(ip string) (*pkg, error) {
	if p, seen := m.pkgs[ip]; seen {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, m.path), "/")
	bp, err := build.Default.ImportDir(filepath.Join(m.dir, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = nil
	p := &pkg{rel: rel, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if p.types, err = (&types.Config{Importer: m}).Check(ip, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	return p, nil
}

func (m *module) Import(path string) (*types.Package, error) { return m.ImportFrom(path, "", 0) }

// ImportFrom checks module packages itself, so their syntax and type
// information stay at hand, and leaves the rest to the source importer.
func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return m.std.ImportFrom(path, dir, mode)
	}
	p, err := m.check(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (m *module) sorted() []*pkg {
	list := make([]*pkg, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		list = append(list, p)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].rel < list[j].rel })
	return list
}

// forEachDecl calls fn with every package-level object p declares, init
// funcs and methods included, and the syntax declaring it.
func forEachDecl(p *pkg, fn func(types.Object, ast.Node)) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok {
				fn(p.info.Defs[d.Name], d)
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(p.info.Defs[s.Name], s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(p.info.Defs[id], s)
					}
				}
			}
		}
	}
}

// link records what each declaration references and indexes every
// interface the module declares, spells inline or imports.
func (m *module) link() {
	for _, p := range m.sorted() {
		forEachDecl(p, func(obj types.Object, node ast.Node) {
			m.decls = append(m.decls, obj)
			m.byName[m.name(obj)] = obj
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if used := m.tracked(p.info.Uses[id]); used != nil {
						m.deps[obj] = append(m.deps[obj], used)
					}
				}
				return true
			})
			// An implicitly repeated const spec names its type nowhere.
			if named, ok := obj.Type().(*types.Named); ok && m.tracked(named.Obj()) != nil {
				m.deps[obj] = append(m.deps[obj], named.Obj())
			}
		})
		for _, tv := range p.info.Types {
			m.addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				m.addIface(tn.Type())
			}
		}
		for _, dep := range tp.Imports() {
			visit(dep)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	m.addIface(types.Universe.Lookup("error").Type())
}

func (m *module) addIface(t types.Type) {
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			m.ifaces[name] = append(m.ifaces[name], it)
		}
	}
}

// tracked returns the module's package-level object or concrete method obj
// stands for, and nil for anything else.
func (m *module) tracked(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil || m.pkgs[obj.Pkg().Path()] == nil {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				return nil
			}
			return fn
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// roots are the objects the program starts from.
func (m *module) roots() []types.Object {
	imported := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if !imported[tp] {
			imported[tp] = true
			for _, dep := range tp.Imports() {
				visit(dep)
			}
		}
	}
	for _, p := range m.pkgs {
		if p.types.Name() == "main" || p.rel == "easeml" {
			visit(p.types)
		}
	}
	var roots []types.Object
	for _, p := range m.sorted() {
		forEachDecl(p, func(obj types.Object, _ ast.Node) {
			name := obj.Name()
			if p.frozen() || (p.rel == "easeml" && obj.Exported()) ||
				(imported[p.types] && (name == "init" || name == "_")) ||
				(name == "main" && p.types.Name() == "main") {
				roots = append(roots, obj)
			}
		})
	}
	return roots
}

// walk returns what start reaches, leaving out what done holds. A type
// among start keeps all its methods when done is given (the allowlist
// walk); a type reached on the way keeps those that satisfy a known
// interface.
func (m *module) walk(start []types.Object, done map[types.Object]bool) map[types.Object]bool {
	seen := map[types.Object]bool{}
	var queue []types.Object
	push := func(obj types.Object) {
		if !seen[obj] && !done[obj] {
			seen[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, obj := range start {
		push(obj)
		if tn, ok := obj.(*types.TypeName); ok && done != nil {
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				push(ms.At(i).Obj().(*types.Func).Origin())
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, dep := range m.deps[obj] {
			push(dep)
		}
		if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				fn := ms.At(i).Obj().(*types.Func)
				for _, it := range m.ifaces[fn.Name()] {
					if types.Implements(ptr, it) {
						push(fn.Origin())
						break
					}
				}
			}
		}
	}
	return seen
}

// gate checks the allowlist and reports what nothing reaches.
func (m *module) gate(allow []entry, allowPath string, out, errOut io.Writer) int {
	reached := m.walk(m.roots(), nil)
	failures := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(errOut, "reachgate: FAIL "+format+"\n", args...)
		failures++
	}
	var entries []types.Object
	for _, e := range allow {
		obj, ok := m.byName[e.name]
		switch {
		case e.reason == "":
			fail("%s:%d: %s gives no reason", allowPath, e.line, e.name)
		case !ok:
			fail("%s:%d: %s names no package-level identifier: delete the entry", allowPath, e.line, e.name)
		case reached[obj]:
			fail("%s:%d: %s is reachable now: delete the entry", allowPath, e.line, e.name)
		default:
			entries = append(entries, obj)
		}
	}
	kept := m.walk(entries, reached)
	dead := func(obj types.Object) bool { return !reached[obj] && !kept[obj] }
	for _, obj := range m.decls {
		p := m.pkgs[obj.Pkg().Path()]
		name := obj.Name()
		if !dead(obj) || p.frozen() || name == "_" || name == "init" || (name == "main" && p.types.Name() == "main") {
			continue
		}
		if recv := receiver(obj); recv != nil && dead(recv) {
			continue // reported with its type
		}
		fail("%s: %s (%s) is reached by no root: delete it, or allowlist it with a reason",
			m.fset.Position(obj.Pos()), m.name(obj), kind(obj))
	}
	fmt.Fprintf(out, "reachgate: %d packages, %d identifiers reached, %d more kept by %d allowlist entries, %d failures\n",
		len(m.pkgs), len(reached), len(kept), len(allow), failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// receiver returns the type a method is declared on, and nil for any other
// object.
func receiver(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj()
}

// name is obj's identifier in reports and in the allowlist: the package's
// directory, a method's receiver type, then the name.
func (m *module) name(obj types.Object) string {
	rel := m.pkgs[obj.Pkg().Path()].rel
	if recv := receiver(obj); recv != nil {
		return rel + "." + recv.Name() + "." + obj.Name()
	}
	return rel + "." + obj.Name()
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		if receiver(obj) != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
