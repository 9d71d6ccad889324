// Package archtest checks the invariants no behavioural test can see — who
// calls what, which package imports which, what a struct holds, that each CI
// -run pattern names a test — on parsed sources, which no comment can fool.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

const root = "../.."

var suspended = regexp.MustCompile(`restart (the node )?to recover`)
var testFunc = regexp.MustCompile(`^(Test|Fuzz|Example)`)

type src struct {
	path string // slash-separated, relative to the module root
	file *ast.File
	fset *token.FileSet // one per load, shared by the files it parsed
}

// load parses, in parallel, every Go file under the module root, outside
// testdata and dot directories, that is a test file or not as tests says.
func load(t *testing.T, tests bool) []src {
	var out []src
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		switch {
		case err != nil:
			return err
		case fi.IsDir() && p != root && (fi.Name() == "testdata" || fi.Name()[0] == '.'):
			return filepath.SkipDir
		case !fi.IsDir() && strings.HasSuffix(p, ".go") && strings.HasSuffix(p, "_test.go") == tests:
			out = append(out, src{path: strings.TrimPrefix(filepath.ToSlash(p), root+"/"), fset: fset})
		}
		return nil
	})
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if out[i].file, err = parser.ParseFile(fset, filepath.Join(root, out[i].path), nil, parser.SkipObjectResolution); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err != nil || t.Failed() {
		t.Fatal(err)
	}
	return out
}

// sites lists, for each rule, "file:func" (func empty outside a function) for
// each node it matches in the files under its prefix in, outside those in out.
func sites(srcs []src) [][]string {
	found := make([][]string, len(rules))
	for _, s := range srcs {
		var active []int
		for i, r := range rules {
			if strings.HasPrefix(s.path, r.in) && !slices.ContainsFunc(r.out, func(o string) bool { return strings.HasPrefix(s.path, o) }) {
				active = append(active, i)
			}
		}
		for _, d := range s.file.Decls {
			ast.Inspect(d, func(n ast.Node) bool {
				for _, i := range active {
					if n != nil && rules[i].match(n) {
						found[i] = append(found[i], s.path+":"+declName(d))
					}
				}
				return true
			})
		}
	}
	return found
}

// named reports whether e is sel qualified by x — a package, or a receiver
// whose last element is x — or, with x empty, sel however qualified.
func named(e ast.Expr, x, sel string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return x == "" && e.Name == sel
	case *ast.SelectorExpr:
		return e.Sel.Name == sel && (x == "" || named(e.X, "", x))
	}
	return false
}

func call(x, sel string) func(ast.Node) bool {
	return func(n ast.Node) bool { c, ok := n.(*ast.CallExpr); return ok && named(c.Fun, x, sel) }
}

// holdsBytes reports whether type e holds a byte slice or a seal.Sealed.
func holdsBytes(e ast.Expr, inSlice bool) bool {
	switch e := e.(type) {
	case *ast.StarExpr:
		return holdsBytes(e.X, inSlice)
	case *ast.ArrayType:
		return e.Len == nil && holdsBytes(e.Elt, true)
	case *ast.Ident:
		return inSlice && e.Name == "byte"
	}
	return named(e, "seal", "Sealed")
}

// rules pins the sites that may do a thing: none, or these in file order.
var rules = []struct {
	name      string
	match     func(ast.Node) bool
	in        string
	out, want []string
}{
	// The client's primary and replica connections share one frame reader.
	{"one-link", call("", "ReadFrame"), "internal/client/", nil, []string{"internal/client/gateway.go:readLoop"}},
	// Both links get a transport one way: the link's dial has one caller.
	{"one-dial", call("", "dial"), "internal/client/", nil, []string{"internal/client/gateway.go:connect"}},
	// Per-record sealing is the reference's second shape, and the ladder's.
	{"seal-all-callers", call("", "SealAll"), "", []string{"internal/refdb/", "benchmark/"}, nil},
	// One tenant machine ingests a sealed batch, and one path spills history.
	{"one-ingest", call("", "UpdateSealed"), "internal/", []string{"internal/oblidb/", "internal/crypte/", "internal/refdb/"}, []string{"internal/gateway/tenant.go:Ingest"}},
	// A batch is opened only by the backend it is sent to: the gateway hands
	// it on sealed and opens no ciphertext itself (store.Open opens a directory).
	{"gateway-never-opens", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && (named(c.Fun, "", "Open") && !named(c.Fun, "store", "Open") || named(c.Fun, "", "OpenAll") || named(c.Fun, "", "AppendOpen"))
	}, "internal/gateway/", nil, nil},
	{"one-spill", call("", "Spill"), "internal/", []string{"internal/oblidb/", "internal/crypte/", "internal/refdb/"}, []string{"internal/store/history.go:EnforceWindow"}},
	{"history-writer", call("", "appendHistory"), "internal/", nil, []string{"internal/store/history.go:Spill"}},
	// A snapshot is installed without renaming over the standing one.
	{"store-renames", call("os", "Rename"), "internal/store/", nil, []string{"internal/store/store.go:quarantinePath", "internal/store/store.go:installImage", "internal/store/store.go:installImage"}},
	// store.RotateDue decides; only the shard worker (and the ladder) rotates.
	{"rotate-callers", call("", "Rotate"), "", []string{"internal/store/", "benchmark/"}, []string{"internal/gateway/shard.go:snapshotShard"}},
	// One serving stack: one place outside the codec acks a client hello.
	{"one-hello-ack", call("wire", "WriteHelloAck"), "", []string{"internal/wire/"}, []string{"internal/gateway/gateway.go:handle"}},
	// An answer's width is its bound's, set at one site and in the codec alone.
	{"one-answer-bound", call("", "NewBoundedQueryResponse"), "", []string{"internal/wire/"}, []string{"internal/gateway/tenant.go:Read"}},
	{"answer-widths", func(n ast.Node) bool {
		e, ok := n.(*ast.SelectorExpr)
		return ok && (named(e, "wire", "AnswerSpec") || named(e, "wire", "Width") || named(e, "wire", "WidthFloat") || named(e, "Answer", "Width"))
	}, "", []string{"internal/wire/"}, nil},
	// One encoding per entry: the hub and the snapshot transfer wrap Entry.Frame.
	{"entry-encoders", call("", "EncodeEntryFrame"), "", []string{"internal/store/", "benchmark/"}, nil},
	// The WAL reports a group commit as one value, never a closure.
	{"no-closure-channel", func(n ast.Node) bool {
		c, ok := n.(*ast.ChanType)
		if ok {
			_, ok = c.Value.(*ast.FuncType)
		}
		return ok
	}, "internal/gateway/", nil, nil},
	// A refusal is matched with errors.Is, never by its text.
	{"no-error-text-match", func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && named(c.Fun, "strings", "Contains") && len(c.Args) > 0 && call("", "Error")(c.Args[0])
	}, "", nil, nil},
	// The gateway says no with wire.Refuse alone, in sentences written once.
	{"gateway-responses", func(n ast.Node) bool {
		c, ok := n.(*ast.CompositeLit)
		return ok && named(c.Type, "wire", "Response") && !slices.ContainsFunc(c.Elts, func(e ast.Expr) bool {
			kv, ok := e.(*ast.KeyValueExpr)
			return ok && named(kv.Key, "", "OK") && named(kv.Value, "", "true")
		})
	}, "internal/gateway/", nil, nil},
	{"suspended-sentence", func(n ast.Node) bool {
		l, ok := n.(*ast.BasicLit)
		return ok && suspended.MatchString(l.Value)
	}, "", nil, []string{"internal/wire/refusal.go:"}},
	// loadgen builds an owner, ticks it and starts a cluster node in one place each.
	{"loadgen-owner", call("core", "New"), "internal/loadgen/", nil, []string{"internal/loadgen/fleet.go:tick"}},
	{"loadgen-tick", call("owner", "Tick"), "internal/loadgen/", nil, []string{"internal/loadgen/fleet.go:tick"}},
	{"loadgen-cluster", call("cluster", "Start"), "internal/loadgen/", nil, []string{"internal/loadgen/target.go:start"}},
	// A node opens as a replica and becomes primary by Promote alone; the lease
	// is asked for by the campaign and the renewal.
	{"one-replica-gateway", call("gateway", "NewReplica"), "internal/cluster/", nil, []string{"internal/cluster/cluster.go:open"}},
	{"primary-by-promote", func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return call("gateway", "New")(n) || ok && id.Name == "Replicator"
	}, "internal/cluster/", nil, nil},
	{"lease-acquire", call("Lease", "Acquire"), "internal/cluster/", nil, []string{"internal/cluster/cluster.go:campaign", "internal/cluster/cluster.go:renewLoop"}},
	// Tenants.Replay runs only when a gateway opens its directory.
	{"one-replay", call("", "Replay"), "internal/gateway/", nil, []string{"internal/gateway/gateway.go:openStore"}},
	// A traced entry is a flag bit on the one entry kind.
	{"repl-entry-branches", func(n ast.Node) bool {
		c, ok := n.(*ast.CaseClause)
		return ok && slices.ContainsFunc(c.List, func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				found = found || ok && strings.HasPrefix(id.Name, "ReplEntry")
				return true
			})
			return found
		})
	}, "internal/wire/", nil, []string{"internal/wire/repl.go:EncodeReplFrame", "internal/wire/repl.go:DecodeReplFrame"}},
	// The simulator keeps a count, not the ciphertexts history already holds.
	{"oblidb-keeps-no-bytes", func(n ast.Node) bool {
		s, ok := n.(*ast.StructType)
		return ok && slices.ContainsFunc(s.Fields.List, func(f *ast.Field) bool { return holdsBytes(f.Type, false) })
	}, "internal/oblidb/", nil, nil},
}

func TestArch(t *testing.T) {
	srcs := load(t, false)
	found := sites(srcs)
	for i, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if !slices.Equal(found[i], r.want) {
				t.Errorf("sites %q, want %q", found[i], r.want)
			}
		})
	}
	// The transcript and the ledger are derived from history: the store
	// needs neither the transcript's types nor the record package.
	t.Run("store-imports", func(t *testing.T) {
		deps := map[string][]string{}
		for _, s := range srcs {
			for _, im := range s.file.Imports {
				deps[path.Dir(s.path)] = append(deps[path.Dir(s.path)], strings.TrimPrefix(strings.Trim(im.Path.Value, `"`), "dpsync/"))
			}
		}
		for next, seen := []string{"internal/store"}, map[string]bool{}; len(next) > 0; next = next[1:] {
			if p := next[0]; p == "internal/leakage" || p == "internal/record" {
				t.Fatalf("internal/store depends on %s", p)
			} else if !seen[p] {
				seen[p] = true
				next = append(next, deps[p]...)
			}
		}
	})
	// One parser of a frame header: outside the codec, no file that speaks
	// the wire protocol or handles a connection's bytes reads an integer out
	// of bytes itself or adds a fixed header length to a payload's — it asks
	// wire.FrameHeader and wire.FrameLen. (benchmark/'s ladder still adds a
	// fixed 4; see CHANGES.md.)
	t.Run("frame-header", func(t *testing.T) {
		var found []string
		for _, s := range srcs {
			if strings.HasPrefix(s.path, "internal/wire/") || strings.HasPrefix(s.path, "benchmark/") ||
				!slices.ContainsFunc(s.file.Imports, func(im *ast.ImportSpec) bool {
					return im.Path.Value == `"dpsync/internal/wire"` || im.Path.Value == `"net"`
				}) {
				continue
			}
			for _, d := range s.file.Decls {
				ast.Inspect(d, func(n ast.Node) bool {
					if sizesFrame(n) {
						found = append(found, s.path+":"+declName(d))
					}
					return true
				})
			}
		}
		if len(found) > 0 {
			t.Errorf("frame headers sized or parsed outside internal/wire at %q", found)
		}
	})
	t.Run("ci-run-patterns-name-tests", testRunPatterns)
	t.Run("every-option-has-a-caller", func(t *testing.T) { testOptionCallers(t, srcs) })
}

// sizesFrame reports whether n reads or writes a length integer of bytes with
// encoding/binary, or adds the literal 4 to a len(): what a second frame
// header parser or sizer is made of.
func sizesFrame(n ast.Node) bool {
	if c, ok := n.(*ast.CallExpr); ok {
		return slices.ContainsFunc([]string{"Uvarint", "ReadUvarint", "PutUvarint", "AppendUvarint", "Uint32", "PutUint32", "AppendUint32"},
			func(f string) bool { return named(c.Fun, "binary", f) || named(c.Fun, "BigEndian", f) })
	}
	b, ok := n.(*ast.BinaryExpr)
	plus4 := func(lit, other ast.Expr) bool {
		l, ok := lit.(*ast.BasicLit)
		hasLen := false
		ast.Inspect(other, func(n ast.Node) bool { hasLen = hasLen || call("", "len")(n); return true })
		return ok && l.Value == "4" && hasLen
	}
	return ok && b.Op == token.ADD && (plus4(b.X, b.Y) || plus4(b.Y, b.X))
}

// declName is a top-level declaration's function name, empty outside one.
func declName(d ast.Decl) string {
	if fd, ok := d.(*ast.FuncDecl); ok {
		return fd.Name.Name
	}
	return ""
}

// testRunPatterns requires each alternative of every go test -run pattern
// in the CI workflow to match a Test, Fuzz or Example function in each
// package its line names.
func testRunPatterns(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string][]string{}
	for _, s := range load(t, true) {
		for _, d := range s.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				tests["./"+path.Dir(s.path)] = append(tests["./"+path.Dir(s.path)], fd.Name.Name)
			}
		}
	}
	for i, line := range strings.Split(string(ci), "\n") {
		m := regexp.MustCompile(`go test .*-run[= ]'?([^' ]+)`).FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		for _, pkg := range regexp.MustCompile(`\./\S*`).FindAllString(line, -1) {
			for _, alt := range strings.Split(m[1], "|") {
				if !slices.ContainsFunc(tests[pkg], regexp.MustCompile(alt).MatchString) {
					t.Errorf("ci.yml:%d: -run alternative %q matches no test in %s", i+1, alt, pkg)
				}
			}
		}
	}
}
