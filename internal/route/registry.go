// Package route hosts the router registry: every routing backend
// (core.Router implementation) registers under a short name, and every
// surface that accepts a `route:<name>` string — pipeline RoutePass,
// batch jobs and their cache keys, the sabred daemon's route
// parameter, the sabremap/benchtab flags, the facade — resolves it
// here. Registering a new heuristic makes it a drop-in backend
// everywhere at once.
//
// Built-in backends: sabre (the paper's multi-trial reverse-traversal
// search, core.TrialRunner at one worker), greedy and astar (the
// comparison baselines), and anneal (simulated annealing over initial
// mappings, this package).
package route

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
)

// Factory constructs a fresh router instance with its default
// configuration.
type Factory func() core.Router

var (
	mu      sync.RWMutex
	entries = map[string]Factory{}
	aliases = map[string]string{}
)

func init() {
	Register("sabre", func() core.Router { return core.TrialRunner{Workers: 1} })
	Register("greedy", func() core.Router { return baseline.GreedyRouter{} })
	Register("astar", func() core.Router { return baseline.AStarRouter{} })
	Register("anneal", func() core.Router { return AnnealRouter{} })
	RegisterAlias("trials", "sabre")
	RegisterAlias("bka", "astar")
}

// clean canonicalizes the spelling of a router name.
func clean(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register adds a routing backend under name. It panics on an empty
// name or a duplicate registration — both are programmer errors that
// must fail loudly at init time, not surface as resolution surprises
// later.
func Register(name string, factory Factory) {
	name = clean(name)
	if name == "" || factory == nil {
		panic("route: Register needs a non-empty name and a non-nil factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := entries[name]; dup {
		panic(fmt.Sprintf("route: router %q registered twice", name))
	}
	if _, dup := aliases[name]; dup {
		panic(fmt.Sprintf("route: router %q shadows an alias", name))
	}
	entries[name] = factory
}

// RegisterAlias makes alias resolve to the already-registered target
// name. Aliases share the target's identity everywhere (including
// batch cache keys, which store the canonical name).
func RegisterAlias(alias, target string) {
	alias, target = clean(alias), clean(target)
	mu.Lock()
	defer mu.Unlock()
	if _, ok := entries[target]; !ok {
		panic(fmt.Sprintf("route: alias %q targets unregistered router %q", alias, target))
	}
	if _, dup := entries[alias]; dup {
		panic(fmt.Sprintf("route: alias %q shadows a router", alias))
	}
	if _, dup := aliases[alias]; dup {
		panic(fmt.Sprintf("route: alias %q registered twice", alias))
	}
	aliases[alias] = target
}

// Canonical resolves a (possibly aliased) router name to its canonical
// registered form. The empty name means the default backend and
// resolves to "sabre". Unknown names return an error listing every
// registered router.
func Canonical(name string) (string, error) {
	name = clean(name)
	if name == "" {
		return "sabre", nil
	}
	mu.RLock()
	defer mu.RUnlock()
	if target, ok := aliases[name]; ok {
		name = target
	}
	if _, ok := entries[name]; !ok {
		return "", unknownErr(name)
	}
	return name, nil
}

// New resolves name to a fresh router instance. The empty name yields
// the default sabre backend; unknown names return an error listing
// every registered router.
func New(name string) (core.Router, error) {
	canonical, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	mu.RLock()
	factory := entries[canonical]
	mu.RUnlock()
	return factory(), nil
}

// Names returns the canonical registered router names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(entries))
	//sabre:nondeterm-ok keys collected then sorted below
	for name := range entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// unknownErr is the resolution failure; it lists the registered
// routers so a typo in a flag or request is self-diagnosing.
// Called with mu held (read or write).
func unknownErr(name string) error {
	return fmt.Errorf("route: unknown router %q (registered: %s)", name, strings.Join(namesLocked(), "|"))
}
