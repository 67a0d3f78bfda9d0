// Command docslint keeps the documentation wired to the code. It enforces
// three invariants CI cannot catch with go vet alone:
//
//  1. Every Go package in the module (root, internal/..., cmd/...,
//     examples/...) carries a package comment, so `go doc` always has
//     something to say about a layer.
//  2. Every relative link in the top-level documents (README.md,
//     docs/ARCHITECTURE.md) resolves to a file or directory that exists,
//     so refactors cannot silently strand the architecture docs.
//  3. Every markdown file a Go comment names, bare or with its directory,
//     exists — looked up from the module root, then beside the Go file,
//     then by bare name anywhere in the module — so a comment cannot cite a
//     design document that was never written or has since been deleted.
//
// Usage: docslint [-root dir]. Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root to lint")
	flag.Parse()

	var problems []string
	problems = append(problems, lintPackageComments(*root)...)
	for _, doc := range []string{"README.md", filepath.Join("docs", "ARCHITECTURE.md")} {
		problems = append(problems, lintMarkdownLinks(*root, doc)...)
	}
	problems = append(problems, lintGoCommentDocs(*root)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// walkFiles calls visit for every file under root whose name ends in ext,
// skipping dot-directories and testdata.
func walkFiles(root, ext string, visit func(path string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ext) {
			visit(path)
		}
		return nil
	})
}

// lintPackageComments walks every directory holding non-test Go files and
// requires at least one file to carry a package doc comment.
func lintPackageComments(root string) []string {
	var problems []string
	pkgFiles := make(map[string][]string) // dir -> non-test .go files
	err := walkFiles(root, ".go", func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			pkgFiles[dir] = append(pkgFiles[dir], path)
		}
	})
	if err != nil {
		return []string{fmt.Sprintf("docslint: walk: %v", err)}
	}
	for dir, files := range pkgFiles {
		documented := false
		fset := token.NewFileSet()
		for _, f := range files {
			parsed, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if parsed.Doc != nil && strings.TrimSpace(parsed.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			problems = append(problems, fmt.Sprintf("%s: package has no package comment on any file", dir))
		}
	}
	return problems
}

// linkRe matches markdown inline links and images: [text](target).
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// lintMarkdownLinks requires every relative link target in doc to exist on
// disk, resolved against the document's own directory.
func lintMarkdownLinks(root, doc string) []string {
	path := filepath.Join(root, doc)
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", doc, err)}
	}
	var problems []string
	for ln, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", doc, ln+1, m[1]))
			}
		}
	}
	return problems
}

// mdNameRe matches a markdown file name, with any directory prefix, as it
// appears in running comment text.
var mdNameRe = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// lintGoCommentDocs requires every markdown file named in a Go comment (test
// files included) to exist: at the path as written from the module root or
// from the Go file's directory, or — for a bare name — anywhere in the module.
func lintGoCommentDocs(root string) []string {
	known := make(map[string]bool) // base names of the module's markdown files
	var goFiles []string
	err := walkFiles(root, ".md", func(path string) { known[filepath.Base(path)] = true })
	if err == nil {
		err = walkFiles(root, ".go", func(path string) { goFiles = append(goFiles, path) })
	}
	if err != nil {
		return []string{fmt.Sprintf("docslint: walk: %v", err)}
	}
	var problems []string
	fset := token.NewFileSet()
	for _, path := range goFiles {
		parsed, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		for _, group := range parsed.Comments {
			for _, c := range group.List {
				for _, name := range mdNameRe.FindAllString(c.Text, -1) {
					rel := filepath.FromSlash(name)
					if known[name] || exists(filepath.Join(root, rel)) || exists(filepath.Join(filepath.Dir(path), rel)) {
						continue
					}
					problems = append(problems, fmt.Sprintf("%s: comment names %q, which does not exist",
						fset.Position(c.Pos()), name))
				}
			}
		}
	}
	return problems
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
