package simd

import (
	"container/list"
	"sync"
)

// indexBudget bounds the bytes of cached documents the server keeps in
// memory. A registry document is 2–15 KB, so the budget holds over 500
// hot keys.
const indexBudget = 8 << 20

// docIndex is the in-memory front of the shared cache: a byte-bounded LRU
// of documents that already passed sweep.Cache's validation on a disk read.
// A key enters it only on a disk hit, so a result requested once never
// takes memory, and every later request for it costs neither file I/O nor
// re-validation.
type docIndex struct {
	mu     sync.Mutex
	budget int // bytes; set from indexBudget, shrunk only by tests
	bytes  int
	lru    list.List // of *indexEntry, most recently used first
	items  map[string]*list.Element
}

type indexEntry struct {
	key string
	doc []byte
}

func newDocIndex() *docIndex {
	return &docIndex{budget: indexBudget, items: make(map[string]*list.Element)}
}

// get returns key's document and marks it most recently used.
func (x *docIndex) get(key string) ([]byte, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.items[key]
	if !ok {
		return nil, false
	}
	x.lru.MoveToFront(e)
	return e.Value.(*indexEntry).doc, true
}

// add admits a validated document, evicting least recently used ones until
// the index fits its budget. A document larger than the budget is never
// admitted.
func (x *docIndex) add(key string, doc []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(doc) > x.budget {
		return
	}
	if e, ok := x.items[key]; ok {
		x.lru.MoveToFront(e)
		return
	}
	x.items[key] = x.lru.PushFront(&indexEntry{key: key, doc: doc})
	x.bytes += len(doc)
	for x.bytes > x.budget {
		old := x.lru.Remove(x.lru.Back()).(*indexEntry)
		delete(x.items, old.key)
		x.bytes -= len(old.doc)
	}
}

// size returns the bytes of documents held.
func (x *docIndex) size() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.bytes
}
