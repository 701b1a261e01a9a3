package poi360

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoMathRandOutsideTests keeps the simulator on one generator: every
// stream is a *seeds.SplitMix drawn directly, so no non-test file of the
// module may import math/rand. Tests may, to build tapes and oracles.
// Nested modules (benchmark/) and hidden directories are not part of this
// module and are skipped.
func TestNoMathRandOutsideTests(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
				t.Errorf("%s imports %s; draw from a *seeds.SplitMix instead", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("checked only %d non-test files; is the walk rooted at the module?", checked)
	}
}

// TestInternalAPIHasCallers keeps internal/ free of orphans: every exported
// top-level func, type, var or const, and every exported method (interface
// methods included), declared in a non-test file under internal/ must be
// named by an identifier in some non-test file of the module or of the
// nested benchmark/ module, outside its own declaration. Names are matched
// as plain identifiers, so the check errs toward "used"; but the name of
// another method declaration is not a use of a method, and identifiers
// inside a type's own method declarations are not uses of that type.
// A helper only tests call belongs in a _test.go file of its package.
//
// Exempt are the methods of the library surface: the types poi360.go
// aliases and, transitively, the named types their methods return. So are
// String() string and Error() string, which fmt and errors call through
// their interfaces, and the test hooks in apiTestHooks.
func TestInternalAPIHasCallers(t *testing.T) {
	type decl struct {
		pos        string
		name       string
		method     bool
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	// Per type: the extents of its method declarations (not uses of the
	// type) and the named types its exported methods return.
	methodSpans := map[typeRef][][2]token.Pos{}
	results := map[typeRef][]typeRef{}
	var library []typeRef
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		notUse := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					notUse[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						notUse[id] = true
					}
				}
			case *ast.Ident:
				if !notUse[n] {
					uses[n.Name] = append(uses[n.Name], n.Pos())
				}
			}
			return true
		})
		if path == "poi360.go" {
			library = append(library, aliasTargets(f)...)
		}
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, name string, method bool, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{fset.Position(id.Pos()).String(), pkg + "." + name, method, node.Pos(), node.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, false, d)
					continue
				}
				recv := typeRef{pkg, baseTypeName(d.Recv.List[0].Type)}
				methodSpans[recv] = append(methodSpans[recv], [2]token.Pos{d.Pos(), d.End()})
				if !ast.IsExported(recv.name) || !d.Name.IsExported() {
					continue
				}
				add(d.Name, recv.name+"."+d.Name.Name, true, d)
				if d.Type.Results != nil {
					for _, r := range d.Type.Results.List {
						if ref, ok := namedType(pkg, r.Type); ok {
							results[recv] = append(results[recv], ref)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, false, spec)
						if it, ok := spec.Type.(*ast.InterfaceType); ok && spec.Name.IsExported() {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, spec.Name.Name+"."+id.Name, true, m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, false, spec)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 || len(library) < 10 {
		t.Fatalf("found only %d exported declarations under internal/ and %d aliases in poi360.go; is the walk rooted at the module?", len(decls), len(library))
	}
	if len(apiTestHooks) > 3 {
		t.Errorf("%d test hooks allowed; at most three", len(apiTestHooks))
	}
	for name := range apiTestHooks {
		found := false
		for _, d := range decls {
			found = found || d.method && d.name == name
		}
		if !found {
			t.Errorf("test hook %s is not an exported method under internal/", name)
		}
	}
	exempt := map[string]bool{}
	for len(library) > 0 {
		ref := library[len(library)-1]
		library = library[:len(library)-1]
		if key := ref.pkg + "." + ref.name; !exempt[key] {
			exempt[key] = true
			library = append(library, results[ref]...)
		}
	}
	for _, d := range decls {
		dot := strings.IndexByte(d.name, '.')
		name := d.name[dot+1:]
		var spans [][2]token.Pos // a type's own methods do not use it
		if d.method {
			typ := name[:strings.IndexByte(name, '.')]
			name = name[len(typ)+1:]
			if exempt[d.name[:dot]+"."+typ] || name == "String" || name == "Error" || apiTestHooks[d.name] != "" {
				continue
			}
		} else {
			spans = methodSpans[typeRef{d.name[:dot], name}]
		}
		used := false
	uses:
		for _, p := range uses[name] {
			if p >= d.start && p < d.end {
				continue
			}
			for _, s := range spans {
				if p >= s[0] && p < s[1] {
					continue uses
				}
			}
			used = true
			break
		}
		if !used {
			t.Errorf("%s: %s has no caller outside tests; delete it or move it into a _test.go file", d.pos, d.name)
		}
	}
}

// apiTestHooks are the exported methods TestInternalAPIHasCallers lets
// stand without a production caller, because other packages' tests need
// them. At most three, each with its reason.
var apiTestHooks = map[string]string{
	"simclock.Clock.Pending": "lte and realnet tests check that the engine is idle",
	"simclock.Wall.Stop":     "realnet's loopback test ends a wall-clock Run with it",
	"fifo.Queue.Cap":         "lte, netsim and ratecontrol tests bound a queue's storage by its live backlog",
}

// typeRef names a type declared under internal/ by package and type name.
type typeRef struct{ pkg, name string }

// baseTypeName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// namedType resolves a result type (T, *T, pkg.T, *pkg.T) declared in a
// file of package pkg to the type it names.
func namedType(pkg string, e ast.Expr) (ref typeRef, ok bool) {
	if s, isPtr := e.(*ast.StarExpr); isPtr {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		ref.pkg, ref.name = pkg, x.Name
	case *ast.SelectorExpr:
		id, isIdent := x.X.(*ast.Ident)
		if !isIdent {
			return ref, false
		}
		ref.pkg, ref.name = id.Name, x.Sel.Name
	default:
		return ref, false
	}
	return ref, ast.IsExported(ref.name)
}

// aliasTargets lists the internal types the file aliases (type A = pkg.T).
func aliasTargets(f *ast.File) (refs []typeRef) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Assign == 0 {
				continue
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					refs = append(refs, typeRef{id.Name, sel.Sel.Name})
				}
			}
		}
	}
	return refs
}

// TestConfigKnobs pins the configuration surface: the exported fields, in
// declaration order, of every exported struct type named …Config declared
// in a non-test file under internal/. A model parameter that no caller
// varies is a named constant in the package that owns it (DESIGN.md §7),
// so a new knob is a reviewed one-line change to this table.
func TestConfigKnobs(t *testing.T) {
	want := map[string]string{
		"lte.CellConfig":         "Profile CapacityFault AlwaysPF Src CapacityStride",
		"lte.Config":             "Profile BufferCapBytes CapacityFault DiagFault",
		"lte.UEConfig":           "BufferCapBytes Seed Src DiagFault",
		"network.Config":         "Cells UEs Duration Seed MeanDwell Workers Mix Obs Agg Sink",
		"ratecontrol.FBCCConfig": "K Hold WatchdogReports",
		"ratecontrol.GCCConfig":  "InitialRate IncrementalTrendline",
		"realnet.ReceiverConfig": "Hold Deliver SendReport AppFeedback Probe",
		"session.Config": "Duration Network Cell Path Video Scheme FixedC RC User UserModel Seed " +
			"PipelineDelay StatsWarmup ROIPrediction Faults FBCCK FBCCHoldRTTs " +
			"DisableRTPLoop FBCCWatchdogReports Obs",
		"session.MultiConfig": "Duration Cell Path Seed Faults Sessions Obs",
		"video.Config":        "Grid FPS MaxScale Seed",
	}
	fset := token.NewFileSet()
	got := map[string]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				var fields []string
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, id.Name)
						}
					}
					if len(fl.Names) == 0 { // embedded: the field is named by its type
						typ := fl.Type
						if s, ok := typ.(*ast.StarExpr); ok {
							typ = s.X
						}
						if sel, ok := typ.(*ast.SelectorExpr); ok {
							typ = sel.Sel
						}
						if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
							fields = append(fields, id.Name)
						}
					}
				}
				got[f.Name.Name+"."+ts.Name.Name] = strings.Join(fields, " ")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("found no …Config structs under internal/; is the walk rooted at the module?")
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fields := got[name]
		if w, ok := want[name]; !ok {
			t.Errorf("%s is a new config struct: %q", name, fields)
		} else if fields != w {
			t.Errorf("%s fields changed:\n got %q\nwant %q", name, fields, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s is pinned but no longer declared", name)
		}
	}
}
