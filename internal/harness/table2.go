package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
)

// Table2Row is one application's programmer-effort comparison: lines of
// code of the original (barrier) reducer vs its barrier-less counterpart —
// the reproduction of the paper's Table 2. We count the actual source lines
// of this repository's implementations.
type Table2Row struct {
	App              string
	OriginalLoC      int
	BarrierlessLoC   int
	IncreasePercent  int
	OriginalDecls    []string
	BarrierlessDecls []string
}

// table2Spec maps each application to the declarations implementing its two
// forms in a file of internal/reducers. A name of the form "path:Decl" is
// read from that file instead, the path relative to internal/reducers:
// barrier-less Sort needs the sum merger behind Store.MergeSum, which the
// barrier form does not, so its row counts store.SumMerger. WordCount's
// barrier form folds with it too, so neither of its forms counts it. The
// barrier-less k-NN and Post Processing fold through the list merge in
// lists.go, so both rows count it.
var table2Spec = []struct {
	app      string
	file     string
	orig     []string
	noBarier []string
}{
	{
		app:      "Sort",
		file:     "reducers.go",
		orig:     []string{"SortingGroup", "SortingGroup.Reduce"},
		noBarier: []string{"SortingStream", "NewSortingStream", "SortingStream.Consume", "SortingStream.Finish", "../store/sum.go:SumMerger"},
	},
	{
		app:      "WordCount",
		file:     "reducers.go",
		orig:     []string{"AggregationGroup", "AggregationGroup.Reduce"},
		noBarier: []string{"AggregationStream", "NewAggregationStream", "AggregationStream.Consume", "AggregationStream.Finish"},
	},
	{
		app:      "k-Nearest Neighbors",
		file:     "selection.go",
		orig:     []string{"SelectionGroup", "SelectionGroup.Reduce"},
		noBarier: []string{"SelectionStream", "NewSelectionStream", "SelectionStream.Consume", "SelectionStream.Finish", "SelectionMerger", "lists.go:mergeLists"},
	},
	{
		app:      "Post Processing",
		file:     "postreduce.go",
		orig:     []string{"PostReductionGroup", "PostReductionGroup.Reduce"},
		noBarier: []string{"PostReductionStream", "NewPostReductionStream", "PostReductionStream.Consume", "PostReductionStream.Finish", "SetUnionMerger", "lists.go:mergeLists"},
	},
	{
		app:      "Genetic Algorithm",
		file:     "crosskey.go",
		orig:     []string{"CrossKeyWindow", "NewCrossKeyWindow", "CrossKeyWindow.Reduce", "CrossKeyWindow.Cleanup", "CrossKeyWindow.Consume", "CrossKeyWindow.Finish"},
		noBarier: []string{"CrossKeyWindow", "NewCrossKeyWindow", "CrossKeyWindow.Reduce", "CrossKeyWindow.Cleanup", "CrossKeyWindow.Consume", "CrossKeyWindow.Finish"},
	},
	{
		app:      "Black-Scholes",
		file:     "moments.go",
		orig:     []string{"Moments", "NewMoments", "Moments.Reduce", "Moments.Cleanup", "Moments.Finish"},
		noBarier: []string{"Moments", "NewMoments", "Moments.Consume", "Moments.Finish"},
	},
}

// Table2 counts the source lines of this repository's barrier and
// barrier-less reducer implementations per application.
func Table2() ([]Table2Row, error) {
	dir, err := reducersDir()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, spec := range table2Spec {
		o, err := sumDecls(dir, spec.file, spec.orig)
		if err != nil {
			return nil, err
		}
		n, err := sumDecls(dir, spec.file, spec.noBarier)
		if err != nil {
			return nil, err
		}
		inc := 0
		if o > 0 {
			inc = (n - o) * 100 / o
		}
		if inc < 0 {
			inc = 0
		}
		rows = append(rows, Table2Row{
			App:              spec.app,
			OriginalLoC:      o,
			BarrierlessLoC:   n,
			IncreasePercent:  inc,
			OriginalDecls:    spec.orig,
			BarrierlessDecls: spec.noBarier,
		})
	}
	return rows, nil
}

// reducersDir locates internal/reducers relative to this source file.
func reducersDir() (string, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("harness: cannot locate source directory")
	}
	return filepath.Join(filepath.Dir(self), "..", "reducers"), nil
}

// declLines parses a file and returns source-line counts per top-level
// declaration, keyed "Name" for types/functions and "Recv.Name" for methods.
func declLines(path string) (map[string]int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", path, err)
	}
	out := map[string]int{}
	lines := func(n ast.Node) int {
		return fset.Position(n.End()).Line - fset.Position(n.Pos()).Line + 1
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			out[name] = lines(d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					out[ts.Name.Name] = lines(ts)
				}
			}
		}
	}
	return out, nil
}

// sumDecls totals the source lines of the named declarations in file, or
// in the file a "path:Decl" name gives, both relative to dir.
func sumDecls(dir, file string, names []string) (int, error) {
	total := 0
	for _, name := range names {
		f := file
		if path, decl, ok := strings.Cut(name, ":"); ok {
			f, name = path, decl
		}
		sizes, err := declLines(filepath.Join(dir, f))
		if err != nil {
			return 0, err
		}
		n, ok := sizes[name]
		if !ok {
			return 0, fmt.Errorf("harness: no declaration %s in %s", name, f)
		}
		total += n
	}
	return total, nil
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// RenderTable2 formats the effort table like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("table2: programmer effort (lines of code) to convert to barrier-less\n")
	fmt.Fprintf(&b, "%-22s %10s %13s %10s\n", "application", "original", "barrier-less", "% increase")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %13d %9d%%\n", r.App, r.OriginalLoC, r.BarrierlessLoC, r.IncreasePercent)
	}
	return b.String()
}
