package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// runPattern matches a -run argument in the workflow, quoted either way.
	runPattern = regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*")`)
	// testName matches the name of a function go test runs.
	testName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
)

// alternatives splits a -run pattern as go test does, at each "|" outside
// brackets and parentheses, and returns what each alternative asks of a
// top-level name: its part before the first such "/".
func alternatives(pattern string) []string {
	var out []string
	depth, start, slash := 0, 0, -1
	for i := 0; i <= len(pattern); i++ {
		c := byte('|')
		if i < len(pattern) {
			c = pattern[i]
		}
		switch {
		case c == '\\':
			i++
		case c == '[' || c == '(':
			depth++
		case c == ']' || c == ')':
			depth--
		case c == '/' && depth == 0 && slash < 0:
			slash = i
		case c == '|' && depth == 0:
			end := i
			if slash >= 0 {
				end = slash
			}
			out = append(out, pattern[start:end])
			start, slash = i+1, -1
		}
	}
	return out
}

// unmatched reports every alternative of a -run pattern in workflow that
// names no function of names: its regular expression matches none of
// them. An alternative that matches the empty name ("^$", which selects
// no test on purpose) or is a shell variable ("$tests") is skipped.
func unmatched(t *testing.T, workflow string, names []string) []string {
	var bad []string
	for _, m := range runPattern.FindAllStringSubmatch(workflow, -1) {
		for _, alt := range alternatives(m[1][1 : len(m[1])-1]) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run %s: alternative %q: %v", m[1], alt, err)
				continue
			}
			if strings.HasPrefix(alt, "$") || re.MatchString("") {
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				bad = append(bad, alt)
			}
		}
	}
	return bad
}

// testFunctions lists every Test, Fuzz and Benchmark function declared
// in the _test.go files under root.
func testFunctions(t *testing.T, root string) []string {
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestWorkflowRunsExistingTests reads the CI workflow and fails on a -run
// alternative that matches no Test, Fuzz or Benchmark function in the
// tree: a renamed or misspelled test that CI would otherwise skip in
// silence. A misspelled name, and one behind a subtest, are reported.
func TestWorkflowRunsExistingTests(t *testing.T) {
	root := filepath.Join("..", "..")
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names := testFunctions(t, root)
	if !slices.Contains(names, "TestWorkflowRunsExistingTests") {
		t.Fatalf("the walk of %s found %d test functions, not this one", root, len(names))
	}
	if bad := unmatched(t, string(workflow), names); len(bad) > 0 {
		t.Errorf("ci.yml runs %q, which match no test function in the tree", bad)
	}
	misspelled := `go test -run 'TestWorkflowRunsExistingTests|TestWorkflowRunsExistingTest$|TestWorkflowRunsExistngTests/x|(TestA|TestWorkflow).*/y|^$' ./...`
	if bad := unmatched(t, misspelled, names); !slices.Equal(bad, []string{"TestWorkflowRunsExistingTest$", "TestWorkflowRunsExistngTests"}) {
		t.Errorf("a workflow with two misspelled names: reported %q", bad)
	}
}
