package lint

import (
	"go/ast"
	"go/parser"
	"sort"
)

// CheckSource type-checks synthetic sources as a package with the given
// import path (imports resolve against the real module and the standard
// library). Analyzer tests use it to exercise findings without touching
// the repository's own files. The result is not cached.
func (l *Loader) CheckSource(path string, sources map[string]string) (*Package, error) {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, sources[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, files)
}
