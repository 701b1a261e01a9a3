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
// top-level func, type, var or const declared in a non-test file under
// internal/ must be named by an identifier in some non-test file of the
// module or of the nested benchmark/ module, outside its own declaration.
// Names are matched as plain identifiers, so the check errs toward "used".
// A helper only tests call belongs in a _test.go file of its package.
func TestInternalAPIHasCallers(t *testing.T) {
	type decl struct {
		pos        string
		name       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		add := func(id *ast.Ident, node ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{fset.Position(id.Pos()).String(), f.Name.Name + "." + id.Name, node.Pos(), node.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, spec)
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
	if len(decls) < 100 {
		t.Fatalf("found only %d exported declarations under internal/; is the walk rooted at the module?", len(decls))
	}
	for _, d := range decls {
		name := d.name[strings.IndexByte(d.name, '.')+1:]
		used := false
		for _, p := range uses[name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			t.Errorf("%s: %s has no caller outside tests; delete it or move it into a _test.go file", d.pos, d.name)
		}
	}
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
		"ratecontrol.FBCCConfig": "K Slack HoldRTTs RTT WatchdogReports",
		"ratecontrol.GCCConfig":  "InitialRate IncrementalTrendline",
		"realnet.ReceiverConfig": "SSRC Hold Deliver SendReport AppFeedback Probe",
		"session.Config": "Duration Network Cell Path Video Scheme FixedC RC User UserModel Seed " +
			"PipelineDelay StatsWarmup ROIPrediction Faults FeedbackStaleAfter FBCCK FBCCHoldRTTs " +
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
