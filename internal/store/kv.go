package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"

	"blmr/internal/codec"
	"blmr/internal/core"
)

const (
	// kvDefaultCacheBytes is the cache budget of a KVStore built with none.
	kvDefaultCacheBytes = 1 << 20
	// kvCompactMinBytes is the log size below which compaction never runs;
	// above it, the log is compacted once its garbage is half of it.
	kvCompactMinBytes = 1 << 20
)

// KVStore is the off-the-shelf partial-result store, the stand-in for the
// BerkeleyDB JE, Tokyo Cabinet and MongoDB stores the paper evaluated: an
// LRU record cache in front of an append-only log with compaction. Every
// Merge is a get then a put, each through the cache and each may touch the
// log — exactly the read-modify-update cycle the paper describes in Section
// 5.2.
//
// Like BerkeleyDB as the authors configured it, the store gives up
// crash-durability for speed: the framework re-executes failed tasks, so the
// log is never synced. The log is a byte slice on the heap and its I/O time
// is charged through Hooks (the simulator's), so on the wall-clock engine
// the store models its access pattern, not its memory bound.
//
// Not safe for concurrent use: each reduce task owns its store, as in the
// paper's setup.
type KVStore struct {
	cacheBytes int64
	hooks      Hooks

	log       []byte            // encoded entries; compaction replaces it
	liveBytes int64             // bytes of current versions in log
	index     map[string]logLoc // key → latest entry in log (absent if never evicted)
	cache     map[string]*list.Element
	lru       *list.List // of *cacheEntry, front = most recent
	inUse     int64      // accounted bytes of the cached entries
}

// logLoc is an entry's place in the log.
type logLoc struct {
	off int64
	n   int
}

type cacheEntry struct {
	key   string
	val   string
	dirty bool
}

// NewKVStore creates a KV store whose cache holds cacheBytes of entries
// (<= 0 means 1 MiB); hooks may be nil.
func NewKVStore(cacheBytes int64, hooks Hooks) *KVStore {
	if cacheBytes <= 0 {
		cacheBytes = kvDefaultCacheBytes
	}
	if hooks == nil {
		hooks = nopHooks{}
	}
	return &KVStore{
		cacheBytes: cacheBytes,
		hooks:      hooks,
		index:      make(map[string]logLoc),
		cache:      make(map[string]*list.Element),
		lru:        list.New(),
	}
}

func kvEntrySize(key, val string) int64 {
	return int64(len(key)+len(val)) + core.RecordOverheadBytes
}

// get returns the value at key, reading it back from the log into the cache
// if it was evicted: one store operation.
func (s *KVStore) get(key string) (string, bool) {
	s.hooks.Op()
	if el, ok := s.cache[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	l, ok := s.index[key]
	if !ok {
		return "", false
	}
	val := s.readEntry(s.log, l, key)
	s.cache[key] = s.lru.PushFront(&cacheEntry{key: key, val: val})
	s.inUse += kvEntrySize(key, val)
	s.evictToFit()
	return val, true
}

// put stores val at key in the cache, marking it dirty: one store
// operation.
func (s *KVStore) put(key, val string) {
	s.hooks.Op()
	if el, ok := s.cache[key]; ok {
		e := el.Value.(*cacheEntry)
		s.inUse += int64(len(val) - len(e.val))
		e.val = val
		e.dirty = true
		s.lru.MoveToFront(el)
	} else {
		s.cache[key] = s.lru.PushFront(&cacheEntry{key: key, val: val, dirty: true})
		s.inUse += kvEntrySize(key, val)
	}
	s.evictToFit()
}

// Merge implements Store as an explicit get-then-put: the off-the-shelf
// store has no merge primitive, and paying the full read-modify-write
// cycle per record is exactly the behaviour the paper measured.
func (s *KVStore) Merge(key, val string, m Merger) {
	if prev, ok := s.get(key); ok {
		val = m(prev, val)
	}
	s.put(key, val)
}

// MergeSum implements Store as Merge with SumMerger: the same get-then-put.
func (s *KVStore) MergeSum(key, val string) { s.Merge(key, val, SumMerger) }

// Len implements Store: keys in the cache or the log, each counted once.
func (s *KVStore) Len() int {
	n := len(s.index)
	for k := range s.cache {
		if _, inLog := s.index[k]; !inLog {
			n++
		}
	}
	return n
}

// MemBytes implements Store: only the bounded cache is accounted.
func (s *KVStore) MemBytes() int64 { return s.inUse }

// ApproxBytes implements Store.
func (s *KVStore) ApproxBytes() int64 { return s.inUse }

// SpilledBytes implements Store: the log's size, garbage included.
func (s *KVStore) SpilledBytes() int64 { return int64(len(s.log)) }

// Emit implements Store. The KV store has no ordered iteration, so keys are
// collected and sorted first (this final sort is small relative to the
// per-record read-modify-write traffic that dominates the KV strategy), and
// each is read back through get, paying the store's cost.
func (s *KVStore) Emit(out core.Output) {
	keys := make([]string, 0, len(s.index)+len(s.cache))
	for k := range s.index {
		keys = append(keys, k)
	}
	for k := range s.cache {
		if _, inLog := s.index[k]; !inLog {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := s.get(k); ok {
			out.Write(k, v)
		}
	}
}

func (s *KVStore) evictToFit() {
	for s.inUse > s.cacheBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*cacheEntry)
		if e.dirty {
			s.writeEntry(e)
		}
		s.lru.Remove(el)
		delete(s.cache, e.key)
		s.inUse -= kvEntrySize(e.key, e.val)
	}
}

// writeEntry appends a dirty entry's current version to the log; the
// version it supersedes becomes garbage.
func (s *KVStore) writeEntry(e *cacheEntry) {
	l := s.appendEntry(e.key, e.val)
	if old, ok := s.index[e.key]; ok {
		s.liveBytes -= int64(old.n)
	}
	s.index[e.key] = l
	s.liveBytes += int64(l.n)
	e.dirty = false
	if n := int64(len(s.log)); n >= kvCompactMinBytes && 2*(n-s.liveBytes) >= n {
		s.compact()
	}
}

// compact rewrites every live entry into a fresh log and drops the old one.
func (s *KVStore) compact() {
	old := s.log
	s.log = make([]byte, 0, s.liveBytes)
	for key, l := range s.index {
		s.index[key] = s.appendEntry(key, s.readEntry(old, l, key))
	}
	s.liveBytes = int64(len(s.log))
}

// appendEntry encodes one entry at the end of the log in the records'
// standard framing: uvarint(len(key)), key, uvarint(len(val)), val.
func (s *KVStore) appendEntry(key, val string) logLoc {
	off := len(s.log)
	s.log = codec.AppendRecord(s.log, core.Record{Key: key, Value: val})
	n := len(s.log) - off
	s.hooks.DiskWrite(int64(n))
	return logLoc{off: int64(off), n: n}
}

// readEntry decodes the entry at l in log and returns its value. The log is
// the store's own heap memory, so a bad entry is a bug, not bad input.
func (s *KVStore) readEntry(log []byte, l logLoc, wantKey string) string {
	buf := log[l.off : l.off+int64(l.n)]
	s.hooks.DiskRead(int64(l.n))
	kn, sz := binary.Uvarint(buf)
	if sz <= 0 || string(buf[sz:sz+int(kn)]) != wantKey {
		panic(fmt.Sprintf("store: corrupt KV log entry at %d, want key %q", l.off, wantKey))
	}
	buf = buf[sz+int(kn):]
	vn, sz := binary.Uvarint(buf)
	if sz <= 0 {
		panic(fmt.Sprintf("store: corrupt KV log entry at %d, want key %q", l.off, wantKey))
	}
	return string(buf[sz : sz+int(vn)])
}
