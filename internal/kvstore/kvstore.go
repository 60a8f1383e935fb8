// Package kvstore is a disk-spilling key/value store: an LRU record cache in
// front of an append-only, log-structured disk layout with background
// compaction. It stands in for the off-the-shelf stores (BerkeleyDB JE,
// Tokyo Cabinet, MongoDB) the paper evaluated for holding partial results.
//
// Like BerkeleyDB configured by the authors, the store sacrifices
// crash-durability for speed: the MapReduce framework re-executes failed
// tasks, so the log is never synced.
package kvstore

import (
	"container/list"
	"encoding/binary"
	"fmt"

	"blmr/internal/core"
)

// Disk is the backing log device. Implementations append segments of
// encoded entries and read them back by (segment, offset).
type Disk interface {
	// Append writes data to the active segment and returns its location.
	Append(data []byte) (seg int, off int64)
	// ReadAt reads n bytes from a location written earlier.
	ReadAt(seg int, off int64, n int) []byte
	// DropSegmentsBefore discards all segments with index < seg (compaction).
	DropSegmentsBefore(seg int)
	// Seal closes the active segment and starts a new one, returning the
	// new segment's index.
	Seal() int
}

// Hooks observes store activity so callers can charge simulated time or
// throttle throughput. Any method may be a no-op.
type Hooks interface {
	// Op is invoked once per user-visible Get/Put.
	Op(name string)
	// DiskWrite is invoked when bytes are appended to the log.
	DiskWrite(bytes int64)
	// DiskRead is invoked when bytes are read from the log.
	DiskRead(bytes int64)
}

// NopHooks is a Hooks implementation that does nothing.
type NopHooks struct{}

// Op implements Hooks.
func (NopHooks) Op(string) {}

// DiskWrite implements Hooks.
func (NopHooks) DiskWrite(int64) {}

// DiskRead implements Hooks.
func (NopHooks) DiskRead(int64) {}

// Config parameterizes a Store.
type Config struct {
	// CacheBytes bounds the in-memory record cache. <=0 means a small
	// default (1 MiB).
	CacheBytes int64
	// Disk is the backing device; nil uses an in-memory MemDisk.
	Disk Disk
	// Hooks observes activity; nil means no observation.
	Hooks Hooks
	// CompactMinBytes is the log size below which compaction never runs.
	CompactMinBytes int64
	// CompactGarbageRatio triggers compaction when dead bytes exceed this
	// fraction of the log. <=0 defaults to 0.5.
	CompactGarbageRatio float64
}

type loc struct {
	seg int
	off int64
	n   int
}

type cacheEntry struct {
	key   string
	val   string
	dirty bool
}

// Stats reports cumulative store activity.
type Stats struct {
	Gets, Puts       int64
	CacheHits        int64
	CacheMisses      int64
	Evictions        int64
	Compactions      int64
	BytesWritten     int64
	BytesRead        int64
	LiveBytes        int64 // bytes of current versions on disk
	LogBytes         int64 // total log bytes including garbage
	CacheBytesInUse  int64
	CacheBytesBudget int64
}

// Store is a single-writer key/value store. Not safe for concurrent use —
// each reduce task owns its own store, matching the paper's setup.
type Store struct {
	cfg   Config
	disk  Disk
	hooks Hooks

	index map[string]loc // key -> latest on-disk location (absent if never spilled)
	cache map[string]*list.Element
	lru   *list.List // front = most recent
	inUse int64

	stats Stats
}

// New creates a store with the given configuration.
func New(cfg Config) *Store {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 1 << 20
	}
	if cfg.Disk == nil {
		cfg.Disk = NewMemDisk(4 << 20)
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NopHooks{}
	}
	if cfg.CompactGarbageRatio <= 0 {
		cfg.CompactGarbageRatio = 0.5
	}
	if cfg.CompactMinBytes <= 0 {
		cfg.CompactMinBytes = 1 << 20
	}
	return &Store{
		cfg:   cfg,
		disk:  cfg.Disk,
		hooks: cfg.Hooks,
		index: make(map[string]loc),
		cache: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

func entrySize(key, val string) int64 {
	return int64(len(key)+len(val)) + core.RecordOverheadBytes
}

// Put stores val under key.
func (s *Store) Put(key, val string) {
	s.stats.Puts++
	s.hooks.Op("put")
	if el, ok := s.cache[key]; ok {
		e := el.Value.(*cacheEntry)
		s.inUse += int64(len(val) - len(e.val))
		e.val = val
		e.dirty = true
		s.lru.MoveToFront(el)
	} else {
		e := &cacheEntry{key: key, val: val, dirty: true}
		s.cache[key] = s.lru.PushFront(e)
		s.inUse += entrySize(key, val)
	}
	s.evictToFit()
}

// Get returns the value stored under key.
func (s *Store) Get(key string) (string, bool) {
	s.stats.Gets++
	s.hooks.Op("get")
	if el, ok := s.cache[key]; ok {
		s.stats.CacheHits++
		s.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	l, ok := s.index[key]
	if !ok {
		s.stats.CacheMisses++
		return "", false
	}
	s.stats.CacheMisses++
	val := s.readEntry(l, key)
	e := &cacheEntry{key: key, val: val, dirty: false}
	s.cache[key] = s.lru.PushFront(e)
	s.inUse += entrySize(key, val)
	s.evictToFit()
	return val, true
}

// Len returns the number of distinct keys.
func (s *Store) Len() int {
	n := 0
	for k := range s.cache {
		if _, onDisk := s.index[k]; !onDisk {
			n++
		}
	}
	return n + len(s.index)
}

// CacheBytes returns the in-memory footprint of the cache.
func (s *Store) CacheBytes() int64 { return s.inUse }

// Stats returns a snapshot of cumulative statistics.
func (s *Store) Stats() Stats {
	st := s.stats
	st.CacheBytesInUse = s.inUse
	st.CacheBytesBudget = s.cfg.CacheBytes
	return st
}

// Keys returns all keys (unordered). Intended for iteration at finalize
// time; callers needing order should sort or use an ordered overlay.
func (s *Store) Keys() []string {
	seen := make(map[string]bool, len(s.index)+len(s.cache))
	out := make([]string, 0, len(s.index)+len(s.cache))
	for k := range s.index {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range s.cache {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (s *Store) evictToFit() {
	for s.inUse > s.cfg.CacheBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*cacheEntry)
		if e.dirty {
			s.writeEntry(e)
		}
		s.lru.Remove(el)
		delete(s.cache, e.key)
		s.inUse -= entrySize(e.key, e.val)
		s.stats.Evictions++
	}
}

func (s *Store) writeEntry(e *cacheEntry) {
	buf := encodeEntry(e.key, e.val)
	seg, off := s.disk.Append(buf)
	n := int64(len(buf))
	s.hooks.DiskWrite(n)
	s.stats.BytesWritten += n
	if old, ok := s.index[e.key]; ok {
		s.stats.LiveBytes -= int64(old.n) // superseded version becomes garbage
	}
	s.index[e.key] = loc{seg: seg, off: off, n: len(buf)}
	s.stats.LiveBytes += n
	s.stats.LogBytes += n
	e.dirty = false
	s.maybeCompact()
}

func (s *Store) readEntry(l loc, wantKey string) string {
	buf := s.disk.ReadAt(l.seg, l.off, l.n)
	s.hooks.DiskRead(int64(l.n))
	s.stats.BytesRead += int64(l.n)
	key, val := decodeEntry(buf)
	if key != wantKey {
		panic(fmt.Sprintf("kvstore: index corruption: read %q, want %q", key, wantKey))
	}
	return val
}

func (s *Store) maybeCompact() {
	garbage := s.stats.LogBytes - s.stats.LiveBytes
	if s.stats.LogBytes < s.cfg.CompactMinBytes {
		return
	}
	if float64(garbage) < s.cfg.CompactGarbageRatio*float64(s.stats.LogBytes) {
		return
	}
	s.compact()
}

// compact rewrites all live entries into fresh segments and drops the old
// ones.
func (s *Store) compact() {
	s.stats.Compactions++
	newFirst := s.disk.Seal()
	var logBytes int64
	for key, l := range s.index {
		if l.seg >= newFirst {
			logBytes += int64(l.n)
			continue // already rewritten (shouldn't happen mid-compact, but safe)
		}
		val := s.readEntry(l, key)
		buf := encodeEntry(key, val)
		seg, off := s.disk.Append(buf)
		s.hooks.DiskWrite(int64(len(buf)))
		s.stats.BytesWritten += int64(len(buf))
		s.index[key] = loc{seg: seg, off: off, n: len(buf)}
		logBytes += int64(len(buf))
	}
	s.disk.DropSegmentsBefore(newFirst)
	s.stats.LogBytes = logBytes
	s.stats.LiveBytes = logBytes
}

func encodeEntry(key, val string) []byte {
	buf := make([]byte, 0, len(key)+len(val)+8)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	buf = append(buf, val...)
	return buf
}

func decodeEntry(buf []byte) (key, val string) {
	kn, sz := binary.Uvarint(buf)
	if sz <= 0 {
		panic("kvstore: corrupt entry")
	}
	buf = buf[sz:]
	key = string(buf[:kn])
	buf = buf[kn:]
	vn, sz := binary.Uvarint(buf)
	if sz <= 0 {
		panic("kvstore: corrupt entry")
	}
	buf = buf[sz:]
	val = string(buf[:vn])
	return key, val
}
