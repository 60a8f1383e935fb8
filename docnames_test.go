package blmr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docHistory are names DESIGN.md cites in backticks as history: code that
// was deleted on purpose, in sentences that say so.
var docHistory = map[string]bool{
	"BenchmarkMR*":                true, // §9: the root bench_test.go arms bench/ replaced
	"BenchmarkFaultPredicted*":    true, // §9: likewise, now a harness.Parity row
	"TestMapRetryPreservesOutput": true, // §15: went with Config.FailMapTask
	"codec.Reader":                true, // §8: the panicking buffer decoder, deleted
	"store.SpillHooks":            true, // §4: replaced by store.Hooks
	"simmr.RunExchange":           true, // §7: deleted with SpillExchange
}

var (
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docTestName = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\{[^}]*\}|\*)?`)
	docGoFile   = regexp.MustCompile(`([\w./*-]+\.go)\b(?::(\d+))?`)
	goTestFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	docQualName = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// TestDocNamesExist: every test, fuzz target or benchmark, every .go file
// and every qualified identifier (`pkg.Name`, pkg one of the repository's
// packages and Name capitalised) that DESIGN.md names in backticks exists
// in the repository — the last as a top-level func, type, var or const, or
// a method, declared in a package of that name — and a file.go:N reference
// points inside its file, so a change that renames or deletes one fails
// here until the doc follows. A brace group expands (`BenchmarkX{A,B}`
// names two benchmarks), and a * makes a name a prefix or a path a glob;
// docHistory lists the exceptions. Lower-case dotted names such as metric
// names are not identifiers and are not checked.
func TestDocNamesExist(t *testing.T) {
	funcs := map[string]bool{}
	decls := map[string]bool{} // "pkg.Name" for every declaration
	files := map[string]int{}  // path -> line count
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		files[filepath.ToSlash(path)] = strings.Count(string(src), "\n")
		for _, m := range goTestFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		if err == nil {
			err = declare(decls, path, src)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range docSpan.FindAllStringSubmatch(string(doc), -1) {
		for _, m := range docTestName.FindAllStringSubmatch(span[1], -1) {
			if docHistory[m[0]] {
				continue
			}
			for _, name := range expandBraces(m[1], m[2]) {
				if !funcs[name] && !(m[2] == "*" && hasPrefixed(funcs, name)) {
					t.Errorf("DESIGN.md cites %s (in `%s`), which no test file declares", name, span[1])
				}
			}
		}
		for _, m := range docQualName.FindAllStringSubmatch(span[1], -1) {
			if decls[m[1]] && !decls[m[0]] && !docHistory[m[0]] {
				t.Errorf("DESIGN.md cites %s (in `%s`), which package %s does not declare", m[0], span[1], m[1])
			}
		}
		for _, m := range docGoFile.FindAllStringSubmatch(span[1], -1) {
			line, _ := strconv.Atoi(m[2])
			if !docHistory[m[1]] && !fileNamed(files, m[1], line) {
				t.Errorf("DESIGN.md cites %s (in `%s`), which names no file of the repository, or a line past its end", m[0], span[1])
			}
		}
	}
}

// declare adds "pkg.Name" to decls for every top-level declaration and
// method of one Go file, pkg its package clause (an external test
// package counts as the package it tests).
func declare(decls map[string]bool, path string, src []byte) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	decls[pkg] = true
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			decls[pkg+"."+d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					decls[pkg+"."+spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						decls[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// expandBraces is name with each alternative of a {a,b} suffix appended,
// or name alone.
func expandBraces(name, suffix string) []string {
	if !strings.HasPrefix(suffix, "{") {
		return []string{name}
	}
	var names []string
	for _, alt := range strings.Split(strings.Trim(suffix, "{}"), ",") {
		names = append(names, name+alt)
	}
	return names
}

func hasPrefixed(funcs map[string]bool, prefix string) bool {
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// fileNamed reports whether a file of at least line lines has a path
// ending with name, a path whose components may be globs.
func fileNamed(files map[string]int, name string, line int) bool {
	parts := strings.Count(name, "/") + 1
	for f, lines := range files {
		comps := strings.Split(f, "/")
		if len(comps) < parts || lines < line {
			continue
		}
		if ok, _ := filepath.Match(name, strings.Join(comps[len(comps)-parts:], "/")); ok {
			return true
		}
	}
	return false
}
