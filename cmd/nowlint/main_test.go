package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("parseConfig(nil): %v", err)
	}
	if cfg.fmtGate || cfg.rules || cfg.dir != "." {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if want := []string{"./..."}; !reflect.DeepEqual(cfg.patterns, want) {
		t.Errorf("default patterns = %v, want %v", cfg.patterns, want)
	}
}

func TestParseConfigExplicit(t *testing.T) {
	cfg, err := parseConfig([]string{"-fmt", "-C", "sub", "./internal/core", "./internal/ba"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.fmtGate || cfg.dir != "sub" {
		t.Errorf("flags not parsed: %+v", cfg)
	}
	if want := []string{"./internal/core", "./internal/ba"}; !reflect.DeepEqual(cfg.patterns, want) {
		t.Errorf("patterns = %v, want %v", cfg.patterns, want)
	}
}

func TestParseConfigBadFlag(t *testing.T) {
	if _, err := parseConfig([]string{"-no-such-flag"}); err == nil {
		t.Error("want error for unknown flag")
	}
}

func TestRunRulesListing(t *testing.T) {
	cfg, err := parseConfig([]string{"-rules"})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(cfg, &out, &out)
	if err != nil || code != 0 {
		t.Fatalf("run(-rules) = %d, %v", code, err)
	}
	for _, rule := range []string{"map-order", "rng-discipline", "float-fold-order", "class-exhaustive"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-rules listing missing %q:\n%s", rule, out.String())
		}
	}
}

// TestRunCleanTree is the CLI-level self-check: the repo lints clean and
// the exit code is 0.
func TestRunCleanTree(t *testing.T) {
	cfg, err := parseConfig([]string{"-C", "../.."})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run(cfg, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("repo should lint clean, exit %d:\n%s", code, out.String())
	}
}
