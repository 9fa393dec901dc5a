//go:build ignore

// Command unlinked lists the functions of the repository module that no
// binary links. Run it from the repository root:
//
//	go run scripts/unlinked.go
//
// It builds every main package of the module and the benchmark in bench/
// with inlining off (-gcflags=all=-l), so a called function keeps its own
// text symbol, reads the repro/... text symbols of each binary with
// `go tool nm`, and diffs their union against the functions declared in the
// non-test files of the module's library packages (the root package and
// everything under internal/). Each unlinked function is printed with its
// source lines, doc comment included, and its position; the ones on the
// allowlist below carry the reason they stay.
//
// The list is a gate: the command exits 1 when it lists a function that is
// not on the allowlist, or an allowlist entry that is linked or gone, and
// when a build or a listing fails; otherwise it exits 0.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlist holds the functions that stay although no binary links them,
// each with its reason: say which test needs it and why the test cannot
// observe the same behaviour through linked code. Keys are symbols as this
// command prints them: package path, receiver type, name. Test oracles
// (references that only tests run) live in _test.go files instead, where
// this audit does not look.
var allowlist = map[string]string{}

// tmp holds the built binaries; die removes it too.
var tmp string

type fn struct {
	sym   string
	pos   string
	lines int
}

func main() {
	var err error
	tmp, err = os.MkdirTemp("", "unlinked")
	check(err)
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	mains := strings.Fields(run("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	for i, m := range mains {
		bin := filepath.Join(tmp, fmt.Sprintf("main%d", i))
		run("go", "build", "-gcflags=all=-l", "-o", bin, m)
		addSymbols(linked, bin)
	}
	bin := filepath.Join(tmp, "bench")
	run("go", "build", "-C", "bench", "-gcflags=all=-l", "-o", bin, ".")
	addSymbols(linked, bin)

	wd, err := os.Getwd()
	check(err)
	var unlinked []fn
	fset := token.NewFileSet()
	listing := run("go", "list", "-f", `{{if ne .Name "main"}}{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}{{end}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		pkg, dir := f[0], f[1]
		for _, name := range f[2:] {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			check(err)
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				sym := pkg + "." + recvName(fd) + fd.Name.Name
				if linked[sym] {
					continue
				}
				start := fd.Pos()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				rel, err := filepath.Rel(wd, path)
				check(err)
				unlinked = append(unlinked, fn{
					sym:   sym,
					pos:   fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line),
					lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
				})
			}
		}
	}
	sort.Slice(unlinked, func(i, j int) bool { return unlinked[i].sym < unlinked[j].sym })

	var kept, other []fn
	keptLines, otherLines := 0, 0
	for _, u := range unlinked {
		if _, ok := allowlist[u.sym]; ok {
			kept = append(kept, u)
			keptLines += u.lines
		} else {
			other = append(other, u)
			otherLines += u.lines
		}
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "unlinked: %d functions, %d lines (%d binaries)\n",
		len(unlinked), keptLines+otherLines, len(mains)+1)
	fmt.Fprintf(w, "\nnot allowlisted: %d functions, %d lines\n", len(other), otherLines)
	for _, u := range other {
		fmt.Fprintf(w, "  %s\t%d\t%s\n", u.sym, u.lines, u.pos)
	}
	fmt.Fprintf(w, "\nallowlisted: %d functions, %d lines\n", len(kept), keptLines)
	for _, u := range kept {
		fmt.Fprintf(w, "  %s\t%d\t%s\n\t%s\n", u.sym, u.lines, u.pos, allowlist[u.sym])
	}
	stale := 0
	for sym := range allowlist {
		if !containsSym(unlinked, sym) {
			fmt.Fprintf(w, "\nstale allowlist entry (linked or gone): %s\n", sym)
			stale++
		}
	}
	check(w.Flush())
	if len(other) > 0 || stale > 0 {
		die(fmt.Sprintf("%d functions not allowlisted, %d stale allowlist entries", len(other), stale))
	}
}

// recvName renders a method's receiver type as the symbol prefix "T.",
// dropping the pointer and any type parameters; "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "."
}

var (
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	pointer  = regexp.MustCompile(`\(\*([^)]*)\)`)
)

// addSymbols adds the repro/... text symbols of bin to set, normalised to
// the form recvName gives: pointer receivers and type arguments dropped.
// A closure's symbol (f.func1) marks its enclosing function linked too.
func addSymbols(set map[string]bool, bin string) {
	out := run("go", "tool", "nm", bin)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], "repro") {
			continue
		}
		sym := f[2]
		for prev := ""; prev != sym; {
			prev = sym
			sym = typeArgs.ReplaceAllString(sym, "")
		}
		sym = strings.TrimSuffix(pointer.ReplaceAllString(sym, "$1"), "-fm")
		set[sym] = true
		// pkg.f.func1, pkg.T.m.func2.1, pkg.f.deferwrap1: mark each prefix.
		for i := strings.LastIndex(sym, "."); i > strings.LastIndex(sym, "/"); i = strings.LastIndex(sym, ".") {
			sym = sym[:i]
			set[sym] = true
		}
	}
}

func containsSym(fs []fn, sym string) bool {
	for _, f := range fs {
		if f.sym == sym {
			return true
		}
	}
	return false
}

func run(name string, args ...string) string {
	cmd := exec.Command(name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		die(fmt.Sprintf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String()))
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		die(err.Error())
	}
}

func die(msg string) {
	fmt.Fprintln(os.Stderr, "unlinked:", msg)
	if tmp != "" {
		os.RemoveAll(tmp)
	}
	os.Exit(1)
}
