package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// apiAllow lists the unread identifiers the reader check accepts. A key
// names a finding ("pkg.Name", "pkg.Type.Member") or a whole package
// ("pkg"); its value names the reader, or the ROADMAP item that will give
// it one. A key that matches no finding fails the check, so an entry goes
// when its identifier gains a reader or is deleted.
var apiAllow = map[string]string{
	"check":                     "test-support library: its readers are the invariant, oracle and chaos tests of alloc, core, cluster and harpsim",
	"faultsim.Conn.DelayWrites": faultWrappers,
	"faultsim.Conn.DropWrites":  faultWrappers,
	"faultsim.Conn.StallReads":  faultWrappers,
	"faultsim.WrapListener":     faultWrappers,
	"faultsim.Listener.Conns":   faultWrappers,
	"faultsim.Generate":         "seeded plan generator of faultsim's tests and of harpsim's chaos, invariant and overload suites",
	"store.Store.Err":           "the one reader of the store's sticky error is TestStoreErrIsStickyButNonFatal; the record stays for an embedder to surface",
	"telemetry.ReadJournal":     "harpsim's invariant and chaos tests replay journals with it; ROADMAP 15's checkpointed journal reads it in the program",
	"core.Config.ShardedAlloc":  "a deprecated no-op the frozen benchmark/ still sets; ROADMAP 1(d) deletes it with the other sharding shims",
}

const faultWrappers = "harp's chaos test drives the socket wrappers; ROADMAP 6(b) runs the real transport under them"

// TestAPIReaders is the reader check: every exported package-level
// identifier and exported method of an internal/ package, and every struct
// field there, has a reader among the module's non-test files (benchmark/,
// cmd/ and examples/ included), and every backticked Go name in the prose
// resolves. Run alone with `make lint-api`.
func TestAPIReaders(t *testing.T) {
	m, err := loadAPIModule()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkAPI(m, apiAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// apiModule is what the reader check reads: the module's packages in
// dependency order, parsed from their non-test files, the standard-library
// packages they reach and the prose documents.
type apiModule struct {
	fset *token.FileSet
	pkgs []apiPackage
	std  []string       // standard-library import paths the module reaches
	imp  types.Importer // resolves those paths
	docs []apiDoc
}

type apiPackage struct {
	path  string // import path
	rel   string // directory relative to the module root, "." for the root
	files []*ast.File
}

type apiDoc struct{ name, text string }

// loadAPIModule lists the module with `go list -deps -export`, parses the
// non-test files of its packages and reads the prose documents that
// scripts/lint-metrics.sh checks.
func loadAPIModule() (apiModule, error) {
	m, err := listAPI("./...")
	if err != nil {
		return apiModule{}, err
	}
	script, err := os.ReadFile("scripts/lint-metrics.sh")
	if err != nil {
		return apiModule{}, err
	}
	list := regexp.MustCompile(`(?m)^prose="([^"]+)"`).FindSubmatch(script)
	if list == nil {
		return apiModule{}, fmt.Errorf("scripts/lint-metrics.sh: no prose= document list")
	}
	for _, name := range strings.Fields(string(list[1])) {
		text, err := os.ReadFile(name)
		if err != nil {
			return apiModule{}, err
		}
		m.docs = append(m.docs, apiDoc{name, string(text)})
	}
	return m, nil
}

// referenceDocs are the top-level documents that describe the program as it
// is. The others, such as CHANGES.md and ROADMAP.md, record the project's past
// and plans, so they may name documents that are gone or not yet written.
var referenceDocs = map[string]bool{
	"README.md": true, "DESIGN.md": true, "OPERATIONS.md": true,
	"PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
}

// docRef is a file name ending in .md, such as `DESIGN.md` or
// `benchmark/README.md`.
var docRef = regexp.MustCompile(`[A-Za-z0-9_.][A-Za-z0-9_./-]*\.md\b`)

// TestDocumentReferences checks that every *.md file named in a Go file, a
// shell script, the Makefile, a CI workflow or a top-level document exists,
// against the repository root or against the naming file's directory.
// Without it, a reference to a deleted document passes every other gate.
func TestDocumentReferences(t *testing.T) {
	exists := func(name string) bool {
		_, err := os.Stat(name)
		return err == nil
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		switch {
		case strings.HasSuffix(name, ".go"), strings.HasSuffix(name, ".sh"), name == "Makefile",
			dir == ".github/workflows/", dir == "" && referenceDocs[name]:
		default:
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, ref := range docRef.FindAllString(line, -1) {
				if !exists(ref) && !exists(filepath.Join(dir, ref)) {
					t.Errorf("%s:%d: names %s, which does not exist", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// listAPI runs `go list -deps -export` on patterns and parses the non-test
// files of the module packages it lists; standard-library packages are
// resolved from their export data.
func listAPI(patterns ...string) (apiModule, error) {
	out, err := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)...).Output()
	if err != nil {
		return apiModule{}, fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard                bool
		GoFiles                 []string
		Module                  *struct{ Path, Dir string }
		Error                   *struct{ Err string }
	}
	m := apiModule{fset: token.NewFileSet()}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return apiModule{}, fmt.Errorf("go list output: %w", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			m.std = append(m.std, p.ImportPath)
			continue
		}
		if p.Module == nil || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return apiModule{}, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		rel, err := filepath.Rel(p.Module.Dir, p.Dir)
		if err != nil {
			return apiModule{}, err
		}
		pkg := apiPackage{path: p.ImportPath, rel: filepath.ToSlash(rel)}
		for _, name := range p.GoFiles {
			src, err := os.ReadFile(filepath.Join(p.Dir, name))
			if err != nil {
				return apiModule{}, err
			}
			f, err := parser.ParseFile(m.fset, pkg.rel+"/"+name, src, parser.SkipObjectResolution)
			if err != nil {
				return apiModule{}, err
			}
			pkg.files = append(pkg.files, f)
		}
		m.pkgs = append(m.pkgs, pkg)
	}
	m.imp = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	return m, nil
}

// checkAPI type-checks m and returns one "file:line: ..." line per problem:
// an unread identifier of an internal/ package that allow does not cover,
// an allow entry that covers nothing, and a prose name that resolves to
// nothing.
//
// An identifier is read when a non-test file uses it; a type is also read
// when one of its fields or methods is. A method is read when a selection
// resolves to it, or when its type implements an interface declaring it
// that is declared in the module, is selected on (a type assertion's
// interface literal), is one of implicitIfaces, or is one a value of the
// type is converted to (ifaceFlows) — and the interface's method is itself
// selected, unless the standard library declares it. A field is written by an unkeyed composite
// literal too; embedded, blank and JSON-tagged wire fields are exempt.
func checkAPI(m apiModule, allow map[string]string) ([]string, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return m.imp.Import(path)
	})}
	for _, p := range m.pkgs {
		tp, err := conf.Check(p.path, m.fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
		checked[p.path] = tp
	}

	used := map[types.Object]bool{}
	written := map[*ast.Ident]bool{} // the field keys of keyed struct literals
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var whole types.Type // a struct value written or read field by field
				switch n := n.(type) {
				case *ast.CompositeLit:
					for i, e := range n.Elts {
						kv, keyed := e.(*ast.KeyValueExpr)
						if !keyed {
							if i == 0 {
								whole = info.TypeOf(n)
							}
							break
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
								written[id] = true
							}
						}
					}
				case *ast.CallExpr:
					if tv := info.Types[n.Fun]; tv.IsType() {
						whole = tv.Type // a conversion reads one struct and writes another
						if len(n.Args) == 1 {
							markFields(used, info.TypeOf(n.Args[0]))
						}
					}
				}
				markFields(used, whole)
				return true
			})
		}
	}
	for id, obj := range info.Uses {
		if !written[id] {
			used[origin(obj)] = true
		}
	}

	// ifaces are the interfaces a method may be read through: declared in
	// the module, selected on (the type assertions' interface literals), or
	// looked for in any value. An interface method declared in the module
	// counts only when a non-test selection resolves to it; the standard
	// library calls its own.
	var ifaces []*types.Interface
	selected := map[types.Object]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !isGeneric(t) {
			ifaces = append(ifaces, it)
		}
	}
	for _, sel := range info.Selections {
		if sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
			selected[sel.Obj()] = true
			addIface(sel.Recv())
		}
	}
	for _, p := range m.pkgs {
		scope := checked[p.path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	std := map[string]bool{}
	for _, path := range m.std {
		std[path] = true
	}
	for _, key := range implicitIfaces {
		i := strings.LastIndex(key, ".")
		obj := types.Universe.Lookup(key)
		if path := key[:max(i, 0)]; std[path] {
			if p, err := m.imp.Import(path); err == nil {
				obj = p.Scope().Lookup(key[i+1:])
			}
		}
		if obj != nil {
			addIface(obj.Type())
		}
	}
	convertedTo := ifaceFlows(m, info)
	declares := func(its []*types.Interface, t types.Type, method string) bool {
		for _, it := range its {
			if t != nil && !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				fn := it.Method(i)
				if fn.Name() == method && (selected[fn] || fn.Pkg() == nil || checked[fn.Pkg().Path()] == nil) {
					return true
				}
			}
		}
		return false
	}
	satisfies := func(tn *types.TypeName, method string) bool {
		return !isGeneric(tn.Type()) && declares(ifaces, tn.Type(), method) || declares(convertedTo[tn], nil, method)
	}

	type finding struct{ pos, key string }
	at := func(obj types.Object, key string) finding {
		return finding{m.fset.Position(obj.Pos()).String(), key}
	}
	var findings []finding
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		tp := checked[p.path]
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := tp.Name() + "." + name
			named, isType := obj.Type().(*types.Named)
			if _, isTypeName := obj.(*types.TypeName); !isTypeName || !isType {
				if obj.Exported() && !used[obj] {
					findings = append(findings, at(obj, key))
				}
				continue
			}
			read := used[obj]
			var members []finding // unread members, reported when the type is read
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if used[fn] {
					read = true
				} else if fn.Exported() && !satisfies(named.Obj(), fn.Name()) {
					members = append(members, at(fn, key+"."+fn.Name()))
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if used[f] {
						read = true
					} else if f.Name() != "_" && !f.Embedded() && !strings.Contains(st.Tag(i), `json:"`) {
						members = append(members, at(f, key+"."+f.Name()))
					}
				}
			}
			switch {
			case read:
				findings = append(findings, members...)
			case obj.Exported():
				findings = append(findings, at(obj, key))
			}
		}
	}

	var problems []string
	matched := map[string]bool{}
	for _, f := range findings {
		covered := false
		for k := range allow {
			if f.key == k || strings.HasPrefix(f.key, k+".") {
				matched[k], covered = true, true
			}
		}
		if !covered {
			problems = append(problems, fmt.Sprintf("%s: %s has no non-test reader", f.pos, f.key))
		}
	}
	for k := range allow {
		if !matched[k] {
			problems = append(problems, fmt.Sprintf("api_test.go: apiAllow entry %q covers no unread identifier; delete it", k))
		}
	}
	sort.Strings(problems)
	return append(problems, proseProblems(m, checked)...), nil
}

// implicitIfaces are the interfaces that fmt and encoding/json look for in a
// value of any type: a type implementing one is used as it wherever its
// values are printed or encoded, with no conversion in the source.
var implicitIfaces = []string{"error", "fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler", "encoding.TextMarshaler", "encoding.TextUnmarshaler"}

// ifaceFlows returns, per named type, the interfaces that its values or
// pointers to them are converted to in the module's non-test files:
// explicitly, or as a call argument, an assigned, declared, returned or sent
// value, or a composite-literal element.
func ifaceFlows(m apiModule, info *types.Info) map[*types.TypeName][]*types.Interface {
	flows := map[*types.TypeName][]*types.Interface{}
	flow := func(e ast.Expr, to types.Type) {
		if to == nil {
			return
		}
		it, ok := to.Underlying().(*types.Interface)
		t := info.TypeOf(e)
		if !ok || t == nil {
			return
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			flows[n.Origin().Obj()] = append(flows[n.Origin().Obj()], it)
		}
	}
	returns := func(body *ast.BlockStmt, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns are its own
			case *ast.ReturnStmt:
				if len(n.Results) == sig.Results().Len() {
					for i, e := range n.Results {
						flow(e, sig.Results().At(i).Type())
					}
				}
			}
			return true
		})
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						returns(n.Body, info.Defs[n.Name].Type().(*types.Signature))
					}
				case *ast.FuncLit:
					returns(n.Body, info.TypeOf(n).(*types.Signature))
				case *ast.CallExpr:
					if tv := info.Types[n.Fun]; tv.IsType() {
						if len(n.Args) == 1 {
							flow(n.Args[0], tv.Type)
						}
						break
					}
					sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
					if !ok {
						break
					}
					params := sig.Params()
					for i, a := range n.Args {
						switch last := params.Len() - 1; {
						case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
							if s, ok := params.At(last).Type().Underlying().(*types.Slice); ok {
								flow(a, s.Elem())
							}
						case i <= last:
							flow(a, params.At(i).Type())
						}
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						for i, e := range n.Rhs {
							flow(e, info.TypeOf(n.Lhs[i]))
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, e := range n.Values {
							flow(e, info.TypeOf(n.Type))
						}
					}
				case *ast.SendStmt:
					if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						flow(n.Value, ch.Elem())
					}
				case *ast.CompositeLit:
					compositeFlows(n, info.TypeOf(n), flow)
				}
				return true
			})
		}
	}
	return flows
}

// compositeFlows passes each element of lit, of type t, to flow with the
// type it is stored as.
func compositeFlows(lit *ast.CompositeLit, t types.Type, flow func(ast.Expr, types.Type)) {
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if keyed {
			e = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if !keyed {
				flow(e, u.Field(i).Type())
				continue
			}
			for j := 0; j < u.NumFields(); j++ {
				if id, ok := kv.Key.(*ast.Ident); ok && u.Field(j).Name() == id.Name {
					flow(e, u.Field(j).Type())
				}
			}
		case *types.Slice:
			flow(e, u.Elem())
		case *types.Array:
			flow(e, u.Elem())
		case *types.Map:
			if keyed {
				flow(kv.Key, u.Key())
			}
			flow(e, u.Elem())
		}
	}
}

// proseName is a backticked `pkg.Name` or `pkg.Type.Member`, optionally
// called: `pkg.Func()`, `pkg.Func(args)`. A snake_case member is a
// benchmark metric (`core.tick_ms_p50`), not a Go name, and is skipped, as
// are file names and brace lists.
var proseName = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\([^`()]*\\))?`")

// fileExt holds the extensions of file names the prose backticks, such as
// `harp.trace.json`.
var fileExt = map[string]bool{"go": true, "json": true, "jsonl": true, "md": true, "sh": true, "log": true, "harp": true}

// proseProblems reports every prose name whose package is a module
// package and that resolves to no declaration of it.
func proseProblems(m apiModule, checked map[string]*types.Package) []string {
	byName := map[string][]*types.Package{}
	for _, p := range m.pkgs {
		if tp := checked[p.path]; tp.Name() != "main" {
			byName[tp.Name()] = append(byName[tp.Name()], tp)
		}
	}
	var problems []string
	for _, d := range m.docs {
		for _, at := range proseName.FindAllStringSubmatchIndex(d.text, -1) {
			pkg, name := d.text[at[2]:at[3]], d.text[at[4]:at[5]]
			member := ""
			if at[6] >= 0 {
				member = d.text[at[6]:at[7]]
			}
			last := name
			if member != "" {
				last = member
			}
			if len(byName[pkg]) == 0 || fileExt[last] {
				continue
			}
			resolved := false
			for _, tp := range byName[pkg] {
				resolved = resolved || resolves(tp, name, member)
			}
			if !resolved {
				line := 1 + strings.Count(d.text[:at[0]], "\n")
				problems = append(problems, fmt.Sprintf("%s:%d: %s names no declaration", d.name, line, d.text[at[0]:at[1]]))
			}
		}
	}
	return problems
}

// resolves reports whether name, and member of it when member is set,
// is declared in tp.
func resolves(tp *types.Package, name, member string) bool {
	obj := tp.Scope().Lookup(name)
	if obj == nil || member == "" {
		return obj != nil
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, tp, member)
	return found != nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markFields marks every field of t as used, when t is a struct or a
// pointer to one.
func markFields(used map[types.Object]bool, t types.Type) {
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			used[st.Field(i)] = true
		}
	}
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// TestCheckAPIRules runs the reader check over small in-memory modules, one
// rule each.
func TestCheckAPIRules(t *testing.T) {
	const reader = "package main\n\nimport \"m/internal/a\"\n\n"
	tests := []struct {
		name  string
		a     string // m/internal/a
		main  string // m/cmd/c, a reader
		doc   string
		allow map[string]string
		want  []string
	}{
		{
			name: "an unread export is flagged",
			a:    "package a\n\nfunc Used() {}\n\nfunc Unread() {}\n",
			main: reader + "func main() { a.Used() }\n",
			want: []string{"internal/a/a.go:5:6: a.Unread has no non-test reader"},
		},
		{
			name: "a module interface's method counts only when selected",
			a: `package a

type Shape interface {
	Area() float64
	Side() float64
}

type Sq struct{}

func (Sq) Area() float64 { return 1 }

func (Sq) Side() float64 { return 1 }

func (Sq) Extra() int { return 0 }
`,
			main: reader + "func main() { var s a.Shape = a.Sq{}; _ = s.Area() }\n",
			want: []string{
				"internal/a/a.go:12:11: a.Sq.Side has no non-test reader",
				"internal/a/a.go:14:11: a.Sq.Extra has no non-test reader",
			},
		},
		{
			name: "of two same-named methods only the called one is read",
			a:    "package a\n\ntype A struct{}\n\nfunc (A) Run() {}\n\ntype B struct{}\n\nfunc (B) Run() {}\n",
			main: reader + "func main() { a.A{}.Run(); _ = a.B{} }\n",
			want: []string{"internal/a/a.go:9:10: a.B.Run has no non-test reader"},
		},
		{
			name: "a type assertion's interface literal reads its method",
			a:    "package a\n\ntype P struct{}\n\nfunc (P) Probe() {}\n\nfunc (P) Skip() {}\n\nfunc New() any { return P{} }\n",
			main: reader + "func main() {\n\tif p, ok := a.New().(interface{ Probe() }); ok {\n\t\tp.Probe()\n\t}\n\t_, _ = a.New().(interface{ Skip() })\n}\n",
			want: []string{"internal/a/a.go:7:10: a.P.Skip has no non-test reader"},
		},
		{
			name: "a standard-library interface exempts a method only when the type is used as it",
			a: `package a

type W struct{}

func (W) Write(p []byte) (int, error) { return len(p), nil }

func (W) Close() error { return nil }

type S struct{}

func (S) String() string { return "s" }
`,
			main: "package main\n\nimport (\n\t\"fmt\"\n\n\t\"m/internal/a\"\n)\n\nfunc main() { fmt.Fprint(a.W{}, a.S{}) }\n",
			want: []string{"internal/a/a.go:7:10: a.W.Close has no non-test reader"},
		},
		{
			name: "a JSON-tagged field is exempt, a field nothing reads or writes is not",
			a: "package a\n\ntype Rec struct {\n\tID   string `json:\"id\"`\n\tSeen int\n\tnote string\n}\n\n" +
				"type Pair struct{ X, Y int }\n\ntype Twin struct{ X, Y int }\n\nfunc Both(t Twin) Pair { return Pair(t) }\n",
			main: reader + "func main() { _ = a.Rec{}.Seen; _ = a.Both(a.Twin{1, 2}) }\n",
			want: []string{"internal/a/a.go:6:2: a.Rec.note has no non-test reader"},
		},
		{
			name: "a keyed struct literal writes its fields and reads none; a map key is read",
			a: `package a

type Stats struct {
	N      int
	Pinned int
}

func Get() Stats { return Stats{N: 1, Pinned: 2} }

const K = 1

var M = map[int]bool{K: true}
`,
			main: reader + "func main() { _ = a.Get().N; _ = a.M }\n",
			want: []string{"internal/a/a.go:5:2: a.Stats.Pinned has no non-test reader"},
		},
		{
			name: "an unresolved prose name is flagged",
			a:    "package a\n\ntype T struct{ N int }\n\nfunc (T) M() {}\n",
			main: reader + "func main() { a.T{}.M(); _ = a.T{}.N }\n",
			doc: "`a.T`, `a.T.N`, `a.T.M()` and `a.{T, U}` resolve;\n" +
				"`a.tick_ms_p50`, `a.go` and `x.Y` are skipped;\n`a.U` and `a.T.Z(x)` do not.\n",
			want: []string{
				"DOC:3: `a.U` names no declaration",
				"DOC:3: `a.T.Z(x)` names no declaration",
			},
		},
		{
			name:  "an allow-list entry that covers nothing fails",
			a:     "package a\n\nfunc Unread() {}\n\nfunc Used() {}\n",
			main:  reader + "func main() { a.Used() }\n",
			allow: map[string]string{"a.Unread": "reason", "a.Used": "stale"},
			want:  []string{`api_test.go: apiAllow entry "a.Used" covers no unread identifier; delete it`},
		},
	}
	std, err := listAPI("fmt") // the fixtures' standard-library imports
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := apiModule{fset: std.fset, std: std.std, imp: std.imp, docs: []apiDoc{{"DOC", tt.doc}}}
			for _, p := range []struct{ path, rel, src string }{
				{"m/internal/a", "internal/a", tt.a},
				{"m/cmd/c", "cmd/c", tt.main},
			} {
				f, err := parser.ParseFile(m.fset, p.rel+"/"+filepath.Base(p.rel)+".go", p.src, 0)
				if err != nil {
					t.Fatal(err)
				}
				m.pkgs = append(m.pkgs, apiPackage{path: p.path, rel: p.rel, files: []*ast.File{f}})
			}
			got, err := checkAPI(m, tt.allow)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tt.want, "\n") {
				t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tt.want, "\n"))
			}
		})
	}
}
