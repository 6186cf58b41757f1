package server

import (
	"container/list"
	"sync"

	"socyield/internal/benchmarks"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// systemTable is a keyed LRU of resolved benchmark systems: each bench
// name is generated by benchmarks.ByName once, and every later request
// for it shares the same *yield.System together with a ModelKey memo
// for its fault tree. A cache hit on a bench system then neither
// regenerates the system nor hashes its model key.
//
// The shared systems are immutable. A request that overrides the
// lethalities gets a shallow copy with its own Components (see
// resolve); nothing writes into a table entry after it is built.
type systemTable struct {
	built     *obs.Counter // resolve.systems_built: generations run
	keyHashes *obs.Counter // resolve.key_hashes: memo misses

	capacity int
	generate func(name string) (*yield.System, error)

	mu     sync.Mutex
	byName map[string]*list.Element
	lru    *list.List // front = most recently used
	ready  int        // entries whose generation succeeded
}

// systemEntry is one resolved bench system. sys, keys and err may only
// be read after once has run; ready is guarded by the table's mu.
type systemEntry struct {
	name  string
	once  sync.Once
	sys   *yield.System
	keys  *yield.KeyMemo
	err   error
	ready bool
}

func newSystemTable(capacity int, rec *obs.Registry) *systemTable {
	if capacity < 1 {
		capacity = 1
	}
	return &systemTable{
		built:     rec.Counter("resolve.systems_built"),
		keyHashes: rec.Counter("resolve.key_hashes"),
		capacity:  capacity,
		generate:  benchmarks.ByName,
		byName:    make(map[string]*list.Element),
		lru:       list.New(),
	}
}

// get returns the resolved system for a bench name, generating it on
// first use. Concurrent first requests for one name share one
// generation. Only entries whose generation succeeded count towards the
// capacity and only they are evicted; a name whose generation fails is
// dropped. So a name ByName rejects neither stays in the table nor,
// while its generation is still running, evicts a real one.
func (t *systemTable) get(name string) (*systemEntry, error) {
	t.mu.Lock()
	el, ok := t.byName[name]
	if ok {
		t.lru.MoveToFront(el)
	} else {
		el = t.lru.PushFront(&systemEntry{name: name})
		t.byName[name] = el
	}
	e := el.Value.(*systemEntry)
	t.mu.Unlock()

	e.once.Do(func() {
		t.built.Inc()
		e.sys, e.err = t.generate(name)
		if e.err == nil {
			e.keys = yield.NewKeyMemo(e.sys, t.keyHashes)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if e.err != nil {
			delete(t.byName, name)
			t.lru.Remove(el)
			return
		}
		e.ready = true
		t.ready++
		for back := t.lru.Back(); t.ready > t.capacity; {
			prev := back.Prev()
			if old := back.Value.(*systemEntry); old.ready {
				delete(t.byName, old.name)
				t.lru.Remove(back)
				t.ready--
			}
			back = prev
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}
