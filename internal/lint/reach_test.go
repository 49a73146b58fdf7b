package lint

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the exported functions and methods that no binary
// reaches on purpose: test oracles, calibration models and test-only
// packages. Each line is `symbol  reason`; a symbol ending in ".*"
// allows a whole package.
const reachAllow = "testdata/reach_allow.txt"

// stdMethods are method names that satisfy standard-library interfaces
// (error, fmt.Stringer, io.Reader, io.Closer, http.RoundTripper,
// types.Importer). The standard library calls them through the
// interface, so the linker may drop one that a value of its type could
// still be asked for, as with (*apiError).Error and fault.Action.String.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Read": true, "Close": true,
	"RoundTrip": true, "Import": true,
}

// TestReachability is the production-surface audit: every exported
// function or method outside tests must be named by some binary the
// module builds (every main package under cmd/ and examples/, and the
// cmd/fbbbench module), or be listed in testdata/reach_allow.txt with a
// reason. Inlining is off for the builds, so a call that the compiler
// would inline still leaves its callee's symbol behind.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command("go", args...) // go test puts its own go first on PATH
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	run(root, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	run(root, "build", "-C", "cmd/fbbbench", "-gcflags=all=-l", "-o", filepath.Join(bin, "fbbbench"), ".")

	// reached maps a package path to its reached symbols; main packages
	// are keyed by their binary's name, since every one is "main".
	reached := map[string]map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 2 {
		t.Fatalf("built %d binaries", len(bins))
	}
	for _, b := range bins {
		out := run(root, "tool", "nm", filepath.Join(bin, b.Name()))
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 {
				continue
			}
			name := normalizeSym(strings.Join(f[2:], " "))
			var pkg, sym string
			switch {
			case strings.HasPrefix(name, "main."):
				pkg, sym = "main:"+b.Name(), strings.TrimPrefix(name, "main.")
			case strings.HasPrefix(name, "repro/"), strings.HasPrefix(name, "repro."):
				pkg, sym = splitSym(name)
			default:
				continue
			}
			if reached[pkg] == nil {
				reached[pkg] = map[string]bool{}
			}
			reached[pkg][sym] = true
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	allow := readAllow(t)
	used := map[string]bool{}
	var missing []string
	for _, d := range exportedFuncs(t, root) {
		pkg := d.pkg
		if d.main {
			pkg = "main:" + filepath.Base(d.dir)
		}
		if isReached(reached[pkg], d) {
			continue
		}
		name := d.pkg + "." + d.sym
		if _, ok := allow[name]; ok {
			used[name] = true
			continue
		}
		if _, ok := allow[d.pkg+".*"]; ok {
			used[d.pkg+".*"] = true
			continue
		}
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: no binary reaches it; delete it, move it to a _test.go file, or list it in %s with a reason", m, reachAllow)
	}
	var stale []string
	for name := range allow {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("%s: allow-listed but reached by a binary or no longer declared; drop it from %s", s, reachAllow)
	}
}

// decl is one exported function or method declared outside tests.
type decl struct {
	dir  string // directory, relative to the module root
	pkg  string // import path
	main bool
	sym  string // Func, Type.Method or (*Type).Method, as nm prints it
	name string // the function or method name
	recv string // receiver type name, "" for a function
	ptr  bool   // pointer receiver
}

// exportedFuncs parses every non-test .go file of the module that the
// host's build constraints select, outside testdata and the separate
// cmd/fbbbench module, and returns its exported functions and methods.
func exportedFuncs(t *testing.T, root string) []decl {
	t.Helper()
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			base := e.Name()
			if base == "testdata" || rel == "cmd/fbbbench" || (rel != "." && strings.HasPrefix(base, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), e.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg := "repro"
		if dir != "." {
			pkg += "/" + dir
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			x := decl{dir: dir, pkg: pkg, main: f.Name.Name == "main", name: fd.Name.Name, sym: fd.Name.Name}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				x.recv, x.ptr = recvName(fd.Recv.List[0].Type)
				if x.ptr {
					x.sym = "(*" + x.recv + ")." + x.name
				} else {
					x.sym = x.recv + "." + x.name
				}
			}
			out = append(out, x)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName returns a receiver's base type name, without type
// parameters, and whether it is a pointer.
func recvName(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		ptr, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", ptr
}

// isReached reports whether a binary names the declaration. A value
// method also counts when only its pointer wrapper is linked, and a
// method named like a standard interface's (stdMethods) always counts.
func isReached(syms map[string]bool, d decl) bool {
	switch {
	case syms[d.sym]:
		return true
	case d.recv == "":
		return false
	}
	return stdMethods[d.name] || (!d.ptr && syms["(*"+d.recv+")."+d.name])
}

// normalizeSym drops the type arguments of generic instantiations
// (memo.(*Memo[go.shape.string,go.shape.*uint8]).Get becomes
// memo.(*Memo).Get, and flow.MapWith[…] becomes flow.MapWith), so an
// instantiation names its generic declaration.
func normalizeSym(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitSym splits "repro/internal/flow.(*Cache).Do" into its package
// path and "(*Cache).Do".
func splitSym(s string) (pkg, sym string) {
	slash := strings.LastIndex(s, "/") + 1
	pkg, sym, _ = strings.Cut(s[slash:], ".")
	return s[:slash] + pkg, sym
}

// readAllow parses the allow-list; every entry must carry a reason.
func readAllow(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachAllow, i+1, sym)
		}
		if _, dup := allow[sym]; dup {
			t.Errorf("%s:%d: %s listed twice", reachAllow, i+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow
}
