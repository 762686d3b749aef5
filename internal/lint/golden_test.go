package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestGolden runs each ownership analyzer over its corpus under
// testdata/<analyzer>/, subdirectories included. Every .go file is
// type-checked as its own package under its directory's import path —
// the path scmplint gives it — with imports resolved against the real
// module and the standard library, and must annotate each expected
// finding with a trailing comment of the form
//
//	// want "substring" ["substring" ...]
//
// on the line the diagnostic is reported at. The test fails on any
// missing or unexpected finding. poollife's corpus lives in a directory
// named netsim, so its local Packet type is treated as the pooled one.
func TestGolden(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no golden corpora under testdata/")
	}
	for _, dir := range dirs {
		a := byName[filepath.Base(dir)]
		if a == nil {
			t.Errorf("testdata/%s does not match any analyzer", filepath.Base(dir))
			continue
		}
		var files []string
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			file := file
			t.Run(filepath.ToSlash(file), func(t *testing.T) {
				runGoldenFile(t, a, file)
			})
		}
	}
}

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func runGoldenFile(t *testing.T, a *Analyzer, file string) {
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	path := "scmp/internal/lint/" + filepath.ToSlash(filepath.Dir(file))

	want := parseWants(t, file, src)

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(file)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckSource(path, map[string]string{abs: string(src)})
	if err != nil {
		t.Fatal(err)
	}

	got := map[int][]string{}
	for _, d := range Check([]*Package{pkg}, []*Analyzer{a}) {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}
	compareFindings(t, file, want, got)
}

// parseWants maps each line of src to the message substrings its want
// comment expects.
func parseWants(t *testing.T, file string, src []byte) map[int][]string {
	want := map[int][]string{}
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range wantArgRE.FindAllString(m[1], -1) {
			s, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", file, i+1, q, err)
			}
			want[i+1] = append(want[i+1], s)
		}
	}
	return want
}

// compareFindings fails t on every wanted finding missing from got and
// every finding in got that no want comment expects.
func compareFindings(t *testing.T, file string, want, got map[int][]string) {
	t.Helper()
	var wantLines []int
	for line := range want {
		wantLines = append(wantLines, line)
	}
	sort.Ints(wantLines)
	for _, line := range wantLines {
		for _, sub := range want[line] {
			idx := -1
			for i, msg := range got[line] {
				if strings.Contains(msg, sub) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: missing finding mentioning %q (got %v)", file, line, sub, got[line])
				continue
			}
			got[line] = append(got[line][:idx], got[line][idx+1:]...)
		}
	}
	var lines []int
	for line := range got {
		if len(got[line]) > 0 {
			lines = append(lines, line)
		}
	}
	sort.Ints(lines)
	for _, line := range lines {
		for _, msg := range got[line] {
			t.Errorf("%s:%d: unexpected finding: %s", file, line, msg)
		}
	}
}
