package poi360

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocIdentifiersResolve keeps the prose in step with the code: in
// DESIGN.md, README.md, EXPERIMENTS.md and the verify skill, every inline
// backticked TestX, BenchmarkX or FuzzX (a * matches any run of
// characters, a /subtest is ignored) must be a function declared in the
// module or in benchmark/, and every backticked pkg.Ident or
// pkg.Type.Member whose pkg is a package of the module and whose Ident is
// exported must be declared there: a top-level name, or a method, field or
// interface method of the type. A lower-case pkg.name is an event kind or
// a metric (`lte.grant`, `obs.overhead_ratio`) and is not checked.
func TestDocIdentifiersResolve(t *testing.T) {
	decls, types, pkgs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	var funcs []string
	parseTree(t, token.NewFileSet(), ".", true, true, func(path string, f *ast.File) {
		pkg := f.Name.Name
		if pkg != "main" && !strings.HasSuffix(pkg, "_test") {
			pkgs[pkg] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs = append(funcs, d.Name.Name)
					decls[pkg+"."+d.Name.Name] = true
				} else {
					decls[pkg+"."+baseTypeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decls[pkg+"."+id.Name] = true
						}
					case *ast.TypeSpec:
						name := pkg + "." + s.Name.Name
						decls[name], types[name] = true, true
						var members []*ast.Field
						switch x := s.Type.(type) {
						case *ast.StructType:
							members = x.Fields.List
						case *ast.InterfaceType:
							members = x.Methods.List
						}
						for _, m := range members {
							for _, id := range m.Names {
								decls[name+"."+id.Name] = true
							}
							if len(m.Names) == 0 { // embedded: named by its type
								decls[name+"."+baseTypeName(m.Type)] = true
							}
						}
					}
				}
			}
		}
	})
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_*][\w*]*`)
	qualified := regexp.MustCompile(`(^|[^\w./-])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	fence := regexp.MustCompile("(?sm)^```.*?^```")
	span := regexp.MustCompile("`[^`]+`")
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(fence.ReplaceAllString(string(text), ""), -1) {
			for _, name := range testName.FindAllString(s, -1) {
				checked++
				re := regexp.MustCompile("^" + strings.ReplaceAll(name, "*", `\w*`) + "$")
				found := false
				for _, f := range funcs {
					found = found || re.MatchString(f)
				}
				if !found {
					t.Errorf("%s: %s in %s names no declared function", doc, name, s)
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(s, -1) {
				pkg, id, member := m[2], m[3], m[4]
				if !pkgs[pkg] {
					continue
				}
				checked++
				name := pkg + "." + id
				if member != "" && types[name] {
					name += "." + member
				}
				if !decls[name] {
					t.Errorf("%s: %s in %s is not declared", doc, name, s)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("checked only %d identifiers; are the documents at the module root?", checked)
	}
}

// TestRunPatternsSelectTests keeps the commands of the Makefile and the
// verify skill live: `go test -run X` passes when X matches nothing, so a
// renamed test would turn a check into a silent no-op. In every `go test`
// command (a Makefile line, a line of a fenced block of the skill, or one
// of its inline spans), each top-level alternative of a -run, -bench or
// -fuzz regex must select a test of the kind the flag runs, declared in a
// _test.go file of a package the command names. '^$' selects nothing on
// purpose; a /subtest pattern is not checked.
func TestRunPatternsSelectTests(t *testing.T) {
	tests := map[string][]string{} // package directory → its test functions
	parseTree(t, token.NewFileSet(), ".", false, true, func(path string, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasSuffix(path, "_test.go") {
				dir := filepath.ToSlash(filepath.Dir(path))
				tests[dir] = append(tests[dir], fn.Name.Name)
			}
		}
	})
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var commands []string
	for _, line := range strings.Split(string(makefile), "\n") {
		commands = append(commands, strings.ReplaceAll(strings.ReplaceAll(line, "$$", "$"), "$(GO) test", "go test"))
	}
	skill, err := os.ReadFile(".claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	fence := regexp.MustCompile("(?sm)^```.*?^```")
	for _, block := range fence.FindAllString(string(skill), -1) {
		commands = append(commands, strings.Split(block, "\n")...)
	}
	commands = append(commands, regexp.MustCompile("`[^`]+`").FindAllString(fence.ReplaceAllString(string(skill), ""), -1)...)
	kinds := map[string]string{"-run": "^(Test|Fuzz|Example)", "-bench": "^Benchmark", "-fuzz": "^Fuzz"}
	word := regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"]+`)
	checked := 0
	for _, cmd := range commands {
		i := strings.Index(cmd, "go test")
		if i < 0 {
			continue
		}
		cmd, _, _ = strings.Cut(strings.Trim(cmd[i:], "`"), "#")
		words := word.FindAllString(cmd, -1)
		var names []string
		pkgs := 0
		for _, w := range words {
			if w == "." || strings.HasPrefix(w, "./") {
				pkgs++
				for dir, fns := range tests {
					if w == "./..." || w == "./"+dir || w == dir {
						names = append(names, fns...)
					}
				}
			}
		}
		if pkgs == 0 { // the package in the working directory
			names = tests["."]
		}
		for k := 1; k < len(words); k++ {
			kind, rx := kinds[words[k-1]], strings.Trim(words[k], `'"`)
			if kind == "" || rx == "^$" {
				continue
			}
			rx, _, _ = strings.Cut(rx, "/")
			for _, alt := range topLevelAlternatives(rx) {
				checked++
				re, ok := regexp.MustCompile(alt), false
				for _, n := range names {
					ok = ok || regexp.MustCompile(kind).MatchString(n) && re.MatchString(n)
				}
				if !ok {
					t.Errorf("%s %q selects nothing in %q", words[k-1], alt, cmd)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d patterns; are the Makefile and the skill at the module root?", checked)
	}
}

// topLevelAlternatives splits rx at each | outside parentheses.
func topLevelAlternatives(rx string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range rx {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts, start = append(alts, rx[start:i]), i+1
		}
	}
	return append(alts, rx[start:])
}
