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
	// flagPattern matches a -run or -fuzz argument, quoted either way or
	// bare.
	flagPattern = regexp.MustCompile(`-(run|fuzz)[ =]('[^']*'|"[^"]*"|[^\s'"]+)`)
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

// unmatched reports every alternative of a -run or -fuzz pattern in
// script that names no function of names (of its Fuzz functions, for
// -fuzz): its regular expression matches none of them. An alternative
// that matches the empty name ("^$", which selects no test on purpose)
// or is a shell or make variable ("$tests") is skipped, and so are
// comment lines.
func unmatched(t *testing.T, script string, names []string) []string {
	var bad []string
	lines := strings.Split(script, "\n")
	lines = slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(strings.TrimSpace(l), "#") })
	for _, m := range flagPattern.FindAllStringSubmatch(strings.Join(lines, "\n"), -1) {
		pattern, want := strings.Trim(m[2], `'"`), names
		if m[1] == "fuzz" {
			want = slices.DeleteFunc(slices.Clone(names), func(n string) bool { return !strings.HasPrefix(n, "Fuzz") })
		}
		for _, alt := range alternatives(pattern) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %s: alternative %q: %v", m[1], m[2], alt, err)
				continue
			}
			if strings.HasPrefix(alt, "$") || re.MatchString("") {
				continue
			}
			if !slices.ContainsFunc(want, re.MatchString) {
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

// TestWorkflowRunsExistingTests reads the CI workflow and the Makefile
// and fails on a -run alternative that matches no Test, Fuzz or
// Benchmark function in the tree, or a -fuzz one that matches no Fuzz
// function: a renamed or misspelled test that CI would otherwise skip in
// silence (go test -fuzz with a pattern that matches no target prints
// "no fuzz tests to fuzz" and passes). A misspelled name, one behind a
// subtest, and a -fuzz name of no fuzz target are reported.
func TestWorkflowRunsExistingTests(t *testing.T) {
	root := filepath.Join("..", "..")
	names := testFunctions(t, root)
	if !slices.Contains(names, "TestWorkflowRunsExistingTests") {
		t.Fatalf("the walk of %s found %d test functions, not this one", root, len(names))
	}
	for _, file := range []string{filepath.Join(".github", "workflows", "ci.yml"), "Makefile"} {
		script, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		if bad := unmatched(t, string(script), names); len(bad) > 0 {
			t.Errorf("%s runs %q, which match no test function in the tree", file, bad)
		}
	}
	misspelled := `go test -run 'TestWorkflowRunsExistingTests|TestWorkflowRunsExistingTest$|TestWorkflowRunsExistngTests/x|(TestA|TestWorkflow).*/y|^$' ./...
	go test -fuzz=FuzzEdgeListDecodes -fuzztime=$(FUZZTIME) -run '^$$' ./internal/storage
	go test -fuzz 'TestWorkflowRunsExistingTests' ./internal/doccheck`
	want := []string{"TestWorkflowRunsExistingTest$", "TestWorkflowRunsExistngTests", "FuzzEdgeListDecodes", "TestWorkflowRunsExistingTests"}
	if bad := unmatched(t, misspelled, names); !slices.Equal(bad, want) {
		t.Errorf("a workflow with four misspelled names: reported %q", bad)
	}
}
