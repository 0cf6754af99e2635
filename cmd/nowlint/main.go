// Command nowlint runs the determinism-contract static-analysis suite
// (internal/lint) over the module: the mechanical enforcement of the
// repo's load-bearing invariant that simulation output is byte-identical
// at any parallelism.
//
// Examples:
//
//	nowlint ./...            # the full suite over every package
//	nowlint ./internal/core  # one package (plus nothing else)
//	nowlint -fmt ./...       # the whole local static gate: gofmt -l,
//	                         # go vet, then the analyzers
//	nowlint -rules           # list the rules and suppression keys
//
// Diagnostics print as `file:line: [rule] message` and any finding makes
// the exit status nonzero, so `go run ./cmd/nowlint ./...` is a CI gate.
// Suppressions are //nowlint:<key> comments with mandatory written
// justifications; see the README's determinism-contract section.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"nowover/internal/lint"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		os.Exit(2)
	}
	code, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// config is the parsed command line.
type config struct {
	fmtGate  bool
	rules    bool
	dir      string
	patterns []string
}

// parseConfig interprets the command line; patterns default to ./... so
// the bare command lints the whole module.
func parseConfig(args []string) (*config, error) {
	fs := flag.NewFlagSet("nowlint", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := &config{}
	fs.BoolVar(&cfg.fmtGate, "fmt", false, "also run gofmt -l and go vet first (the full local static gate)")
	fs.BoolVar(&cfg.rules, "rules", false, "list the analyzers and their suppression keys, then exit")
	fs.StringVar(&cfg.dir, "C", ".", "directory to run in (the module root)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.patterns = fs.Args()
	if len(cfg.patterns) == 0 {
		cfg.patterns = []string{"./..."}
	}
	return cfg, nil
}

// run executes the gate, returning the process exit code: 0 clean, 1 when
// any diagnostic (or gofmt/vet failure) fired.
func run(cfg *config, stdout, stderr io.Writer) (int, error) {
	if cfg.rules {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s (suppress: //nowlint:%s <reason>)  %s\n", a.Name, a.Key, a.Doc)
		}
		return 0, nil
	}

	failed := false
	if cfg.fmtGate {
		dirty, err := gofmtList(cfg.dir)
		if err != nil {
			return 0, err
		}
		for _, f := range dirty {
			fmt.Fprintf(stdout, "%s:1: [gofmt] file is not gofmt-formatted\n", f)
			failed = true
		}
		vet := exec.Command("go", append([]string{"vet"}, cfg.patterns...)...)
		vet.Dir = cfg.dir
		vet.Stdout = stderr
		vet.Stderr = stderr
		if err := vet.Run(); err != nil {
			if _, isExit := err.(*exec.ExitError); !isExit {
				return 0, fmt.Errorf("go vet: %v", err)
			}
			failed = true
		}
	}

	pkgs, _, err := lint.Load(cfg.dir, cfg.patterns...)
	if err != nil {
		return 0, err
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	for _, d := range diags {
		d.Pos.Filename = relPath(cfg.dir, d.Pos.Filename)
		fmt.Fprintln(stdout, d)
		failed = true
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// gofmtList runs gofmt -l over the directory tree, resolving the binary
// from $PATH with a $GOROOT/bin fallback (the toolchain always ships it).
func gofmtList(dir string) ([]string, error) {
	bin, err := exec.LookPath("gofmt")
	if err != nil {
		out, gerr := exec.Command("go", "env", "GOROOT").Output()
		if gerr != nil {
			return nil, fmt.Errorf("gofmt not found: %v", err)
		}
		bin = filepath.Join(strings.TrimSpace(string(out)), "bin", "gofmt")
	}
	cmd := exec.Command(bin, "-l", ".")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("gofmt -l: %v", err)
	}
	var files []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			files = append(files, line)
		}
	}
	return files, nil
}

// relPath shortens absolute diagnostic paths relative to the lint root.
func relPath(dir, path string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(abs, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
