package solver

import (
	"container/list"
	"sync"
)

// Memo is a bounded LRU cache of canonical-query outcomes. Entries are
// keyed by the canonical encoding (canon.go), so a hit transfers across
// variable renamings and conjunct permutations. The cache is safe for
// concurrent use: one Memo is shared per verification run across all
// parallel submodel Checkers. It is the second lookup tier, consulted
// only when a Checker's exact tier (repeats of the same conjuncts in the
// same order) misses.
type Memo struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *memoPair
	entries map[string]*list.Element
}

type memoPair struct {
	key string
	e   *memoEntry
}

// memoEntry replays one Check outcome without re-solving. Entries are
// immutable after insertion — they are shared between goroutines and
// between the exact and run-wide tiers.
type memoEntry struct {
	sat     bool
	quick   bool     // answered by a quick tier (replays as QuickSAT/QuickUNSAT)
	model   []uint64 // canonical model by canonical var index; nil when !sat
	vars    int64    // fresh-blast CNF size for full queries, replayed so the
	clauses int64    // comparable bitblast counters match a cold solve
}

// SharedMemoCap is the default capacity of a run-wide memo, sized for a
// whole corpus run.
const SharedMemoCap = 1 << 16

// NewMemo returns a Memo bounded to capacity entries (minimum 1).
func NewMemo(capacity int) *Memo {
	if capacity < 1 {
		capacity = 1
	}
	return &Memo{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// Len reports the current number of cached entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

func (m *Memo) get(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoPair).e
}

func (m *Memo) put(key string, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoPair).e = e
		m.lru.MoveToFront(el)
		return
	}
	m.entries[key] = m.lru.PushFront(&memoPair{key: key, e: e})
	for m.lru.Len() > m.cap {
		old := m.lru.Back()
		m.lru.Remove(old)
		delete(m.entries, old.Value.(*memoPair).key)
	}
}
