package ddgms_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/ddgms/ddgms"

// unreachedAllowed lists the exported declarations under internal/ that
// no non-test file names, each with the reason it stays. A key is
// "pkg.Name" for a function, type, variable or constant, "pkg.Type.Method"
// for a method, or "pkg" for a whole package.
var unreachedAllowed = map[string]string{
	"faultfs":                     "test harness: the fault-injection file system is driven only by crash sweeps",
	"faultnet":                    "test harness: the network fault injector is driven only by fault sweeps",
	"cube.WithAggregateCache":     "the aggregate-cache path is the tests' reference for lattice answers",
	"router.Classify":             "exported so the drift test ties the route classes to the server mux",
	"server.Server.Routes":        "exported so the router drift test can list every registered route",
	"core.Platform.PatientRecord": "point lookup through the oltp hash index, kept for the refresh mirror's planned read-through",
	"oltp.Tx.Delete":              "the transaction API's write verb set stays whole; replication and recovery tests delete rows",
	"oltp.Tx.Update":              "the transaction API's write verb set stays whole; refresh, crash and replication tests update rows",

	// Test-only methods that shared a name with a used one, found when
	// methods came to be keyed by receiver type. The tests named stay
	// their only callers until each is cut or given a caller.
	"core.Platform.Promote":        "the failover and self-heal tests promote in process; the server and the elector call PromoteToPrimary",
	"govern.Breaker.State":         "the breaker tests read the state machine's position; operators see the ddgms_govern_breaker_state gauge",
	"govern.Budget.Used":           "the cancellation tests read the charged rows to show a scan stopped early",
	"mining.DecisionTree.Describe": "the mining tests pin the fitted tree's text form; no command prints a tree",
	"repl.Follower.Cursor":         "the replication and election tests wait on the applied position; nodes report it through Status",
	"repl.Primary.Epoch":           "the election tests check the led epoch; nodes report it through Status",
	"star.FactTable.Append":        "the star tests pin the map-keyed append's validation; the builder loads through appendKeys",
}

// stdlibCalled are method names the standard library calls through its
// own interfaces (fmt, errors, encoding/json, net/http, sort, io): such
// a method is reached without any file naming it.
var stdlibCalled = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Is": true, "As": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Read": true, "Write": true, "Close": true,
}

// goFile is one parsed non-test file of the tree.
type goFile struct {
	pkg     string            // import path of the file's directory
	imports map[string]string // local name -> import path
	file    *ast.File
}

// TestNoExportOnlyTestsReach fails when an exported top-level declaration
// under internal/ is named by no non-test Go file of the tree (cmd/,
// examples/ and benchmark/ included) other than at its declaration: a
// capability that only its own tests reach. Delete it, or allow-list it
// with a reason above.
//
// Methods are keyed by receiver type plus name. A selector x.M counts
// for the type that x's declaration names, followed syntactically (see
// typeIndex): a call through an interface counts for every type of the
// tree whose methods cover the interface's, and a receiver whose type
// the parser alone cannot follow counts for every method named M.
func TestNoExportOnlyTestsReach(t *testing.T) {
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := modulePath
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{}
		for _, is := range f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = p
		}
		files = append(files, goFile{pkg: pkg, imports: imports, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Uses: package-level names keyed by import path + name, methods by
	// import path + receiver type + name, or by name alone where the
	// receiver's type cannot be followed.
	ix := newTypeIndex(files)
	uses := map[string]bool{}
	for _, gf := range files {
		decl := declIdents(gf.file)
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := gf.imports[x.Name]; ok {
						uses[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[n] {
					uses[gf.pkg+"."+n.Name] = true
				}
			}
			return true
		})
		ix.markMethodUses(gf)
	}

	var unreached []string
	needed := map[string]bool{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.pkg, modulePath+"/internal/") {
			continue
		}
		short := strings.TrimPrefix(gf.pkg, modulePath+"/internal/")
		_, pkgAllowed := unreachedAllowed[short]
		for key, used := range exportedDecls(gf, uses, ix) {
			key = short + "." + key
			_, keyAllowed := unreachedAllowed[key]
			switch {
			case used:
			case pkgAllowed:
				needed[short] = true
			case keyAllowed:
				needed[key] = true
			default:
				unreached = append(unreached, key)
			}
		}
	}
	sort.Strings(unreached)
	for _, k := range unreached {
		t.Errorf("%s is reached only from tests: delete it or allow-list it with a reason", k)
	}
	for k := range unreachedAllowed {
		if !needed[k] {
			t.Errorf("allow-list entry %s is stale: a non-test file reaches it now", k)
		}
	}
}

// declIdents returns the identifiers that declare rather than use a
// name: declared funcs, types, values and struct fields, and the type
// names of method receivers (a type only its own methods mention is
// unreached).
func declIdents(f *ast.File) map[*ast.Ident]bool {
	decl := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			decl[n.Name] = true
			if n.Recv != nil {
				decl[receiverType(n.Recv.List[0].Type)] = true
			}
		case *ast.TypeSpec:
			decl[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				decl[id] = true
			}
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				for _, id := range fld.Names {
					decl[id] = true
				}
			}
		}
		return true
	})
	return decl
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// exportedDecls maps each exported top-level declaration of gf, keyed
// "Name" or "Type.Method", to whether a non-test file names it.
func exportedDecls(gf goFile, uses map[string]bool, ix *typeIndex) map[string]bool {
	out := map[string]bool{}
	for _, d := range gf.file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out[d.Name.Name] = uses[gf.pkg+"."+d.Name.Name]
				continue
			}
			if recv := receiverType(d.Recv.List[0].Type); recv != nil && recv.IsExported() {
				out[recv.Name+"."+d.Name.Name] = ix.methodUsed(gf.pkg+"."+recv.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out[s.Name.Name] = uses[gf.pkg+"."+s.Name.Name]
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out[id.Name] = uses[gf.pkg+"."+id.Name]
						}
					}
				}
			}
		}
	}
	return out
}
