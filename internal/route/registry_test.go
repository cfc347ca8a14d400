package route

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestNamesListsBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"sabre", "greedy", "astar", "anneal"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
	if !sortedStrings(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

func TestNewResolvesEveryRegisteredName(t *testing.T) {
	for _, name := range Names() {
		r, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := r.Name(); got != name {
			t.Fatalf("New(%q).Name() = %q", name, got)
		}
	}
}

func TestNewUnknownListsRegisteredRouters(t *testing.T) {
	_, err := New("quantum-annealer-9000")
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	msg := err.Error()
	for _, want := range Names() {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not list registered router %q", msg, want)
		}
	}
}

func TestCanonicalAliasesAndDefault(t *testing.T) {
	cases := map[string]string{
		"":          "sabre",
		"sabre":     "sabre",
		"trials":    "sabre",
		"  SABRE  ": "sabre",
		"bka":       "astar",
		"astar":     "astar",
		"anneal":    "anneal",
	}
	for in, want := range cases {
		got, err := Canonical(in)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := Canonical("nope"); err == nil {
		t.Fatal("Canonical accepted an unknown name")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate Register", func() {
		Register("sabre", func() core.Router { return nil })
	})
	mustPanic("empty Register", func() {
		Register("", func() core.Router { return nil })
	})
	mustPanic("alias shadowing router", func() {
		RegisterAlias("greedy", "sabre")
	})
	mustPanic("alias to unknown target", func() {
		RegisterAlias("fresh-alias", "not-registered")
	})
	mustPanic("duplicate alias", func() {
		RegisterAlias("bka", "greedy")
	})
	mustPanic("Register shadowing alias", func() {
		Register("bka", func() core.Router { return nil })
	})
}
