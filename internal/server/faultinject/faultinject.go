// Package faultinject provides in-process fault-injection hook points for
// the server's robustness tests: named places in the serving path (slot
// admission, candidate extraction, scoring, append patching, index
// rebuilds) where a test can splice in a delay, a block, or an
// interleaving barrier and then assert the admission/queue invariants
// under exactly the schedule it forced.
//
// Production cost is one atomic pointer load per hook point: with no hook
// registered, Fire returns immediately. Hooks are process-global — tests
// that register them must not run in parallel with each other and must
// call Set's restore function before finishing.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// hooks is the active point→hook map. It is replaced wholesale on every
// Set/restore (copy-on-write under mu) and read with a single atomic load
// in Fire; nil means no hook is active anywhere.
var hooks atomic.Pointer[map[string]func()]

// mu serializes writers (Set and its restore). Readers never take it.
var mu sync.Mutex

// Fire invokes the hook registered for point, if any. The hook runs on the
// caller's goroutine: a blocking hook stalls exactly the code path that
// fired it, which is the point.
func Fire(point string) {
	m := hooks.Load()
	if m == nil {
		return
	}
	if fn := (*m)[point]; fn != nil {
		fn()
	}
}

// Set registers fn at point, replacing any previous hook there, and
// returns a function restoring the previous state. Typical use:
//
//	defer faultinject.Set("server.search.score", func() { <-gate })()
func Set(point string, fn func()) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	var prev func()
	var had bool
	if m := hooks.Load(); m != nil {
		prev, had = (*m)[point]
	}
	install(point, fn)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if had {
			install(point, prev)
		} else {
			install(point, nil)
		}
	}
}

// install writes a copy of the current map with point set (or removed, for
// a nil fn). Caller holds mu.
func install(point string, fn func()) {
	next := make(map[string]func())
	if m := hooks.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	if fn == nil {
		delete(next, point)
	} else {
		next[point] = fn
	}
	if len(next) == 0 {
		hooks.Store(nil)
		return
	}
	hooks.Store(&next)
}
