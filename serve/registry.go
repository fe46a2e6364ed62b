package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Entry is one published model: a name, a version (drawn from the
// registry's monotonic counter on every Store), and the immutable model.
type Entry struct {
	Name    string
	Version int64
	Model   *Model
}

// Registry maps names to models with atomic hot-swap semantics: Store
// publishes a new model under a name without disturbing in-flight requests
// against the old one (which keep their *Model and finish on it), and Load
// on the request path is a single atomic pointer read — no locks, no
// contention with writers. Internally the registry is copy-on-write: writers
// serialize on a mutex, build a fresh map, and publish it atomically.
//
// Versions come from one counter per registry that every Store bumps, so
// they are monotonic per name for the registry's lifetime, surviving
// Delete: re-storing a deleted name gets a version above every one it held
// before, never 1 again. Anything keyed on (name, version) — the server's
// prediction cache in particular — therefore can never confuse a new model
// with a same-named predecessor. The counter is the registry's only
// version state, so create/delete churn over many names leaves nothing
// behind.
//
// The zero Registry is ready to use.
type Registry struct {
	mu      sync.Mutex // serializes writers and guards version
	cur     atomic.Pointer[map[string]*Entry]
	version int64 // last version assigned by Store
}

// maxNameLen bounds model names (they appear in URLs and metrics).
const maxNameLen = 128

// validName reports whether a model name is acceptable: non-empty, at most
// maxNameLen bytes, drawn from [A-Za-z0-9._-], not starting with a dot.
func validName(name string) bool {
	if name == "" || len(name) > maxNameLen || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// snapshot returns the current published map (possibly nil).
func (r *Registry) snapshot() map[string]*Entry {
	if m := r.cur.Load(); m != nil {
		return *m
	}
	return nil
}

// Load returns the entry currently published under name. It is safe to call
// from any number of goroutines concurrently with Store/Delete and never
// blocks on writers.
func (r *Registry) Load(name string) (*Entry, error) {
	if e, ok := r.snapshot()[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("serve: model %q: %w", name, ErrNotFound)
}

// Store publishes model under name, replacing any previous model atomically
// (hot swap: concurrent Loads see either the old entry or the new one,
// never a torn state). It returns the published entry; its Version is one
// above the last version the registry assigned under any name — so it
// exceeds every version the name held before, including across a Delete,
// and a (name, version) pair uniquely identifies one stored model for the
// registry's lifetime.
func (r *Registry) Store(name string, m *Model) (*Entry, error) {
	return r.storeIf(name, 0, m)
}

// storeIf is Store conditioned on ownership: with owner > 0 it publishes m
// only while the entry under name still carries version owner, checked
// under the writer mutex so no Store or Delete can slip in between, and
// fails with ErrNotFound otherwise. Owner 0 stores unconditionally (no
// entry carries version 0). A streaming model's ingest worker publishes
// through it, so a refit or delete of the name retires the worker's
// lineage for good.
func (r *Registry) storeIf(name string, owner int64, m *Model) (*Entry, error) {
	if !validName(name) {
		return nil, fmt.Errorf("serve: model name %q: %w", name, ErrName)
	}
	if m == nil {
		return nil, fmt.Errorf("serve: nil model for %q: %w", name, ErrSnapshot)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	if e := old[name]; owner > 0 && (e == nil || e.Version != owner) {
		return nil, fmt.Errorf("serve: model %q at version %d: %w", name, owner, ErrNotFound)
	}
	next := make(map[string]*Entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	r.version++
	e := &Entry{Name: name, Version: r.version, Model: m}
	next[name] = e
	r.cur.Store(&next)
	return e, nil
}

// Delete removes the model published under name. In-flight requests that
// already loaded the entry finish normally. The version counter is
// untouched, so a later Store under the same name continues above every
// version the name held instead of restarting at 1.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snapshot()
	if _, ok := old[name]; !ok {
		return fmt.Errorf("serve: model %q: %w", name, ErrNotFound)
	}
	next := make(map[string]*Entry, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	r.cur.Store(&next)
	return nil
}

// Entries returns the published entries sorted by name.
func (r *Registry) Entries() []*Entry {
	cur := r.snapshot()
	out := make([]*Entry, 0, len(cur))
	for _, e := range cur {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Len returns the number of published models.
func (r *Registry) Len() int { return len(r.snapshot()) }
