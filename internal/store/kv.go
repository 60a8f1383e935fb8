package store

import (
	"sort"

	"blmr/internal/core"
	"blmr/internal/kvstore"
)

// KVStore adapts the log-structured key/value store (the BerkeleyDB
// stand-in) to the partial-result Store interface. Every Get/Put goes
// through the store's LRU cache and may touch its disk log — exactly the
// read-modify-update cycle the paper describes in Section 5.2.
type KVStore struct {
	kv *kvstore.Store
}

// NewKVStore wraps kv. The caller configures cache size, disk and hooks on
// the underlying store.
func NewKVStore(kv *kvstore.Store) *KVStore { return &KVStore{kv: kv} }

// Get implements Store.
func (s *KVStore) Get(key string) (string, bool) { return s.kv.Get(key) }

// Put implements Store.
func (s *KVStore) Put(key, val string) { s.kv.Put(key, val) }

// Merge implements Store as an explicit get-then-put: the off-the-shelf
// store has no merge primitive, and paying the full read-modify-write
// cycle per record is exactly the behaviour the paper measured.
func (s *KVStore) Merge(key, val string, m Merger) {
	if prev, ok := s.kv.Get(key); ok {
		val = m(prev, val)
	}
	s.kv.Put(key, val)
}

// MergeSum implements Store as Merge with SumMerger: the same get-then-put.
func (s *KVStore) MergeSum(key, val string) { s.Merge(key, val, SumMerger) }

// Len implements Store.
func (s *KVStore) Len() int { return s.kv.Len() }

// MemBytes implements Store: only the bounded cache occupies heap.
func (s *KVStore) MemBytes() int64 { return s.kv.CacheBytes() }

// ApproxBytes implements Store.
func (s *KVStore) ApproxBytes() int64 { return s.kv.CacheBytes() }

// SpilledBytes implements Store.
func (s *KVStore) SpilledBytes() int64 { return s.kv.Stats().LogBytes }

// Emit implements Store. The KV store has no ordered iteration, so keys are
// collected and sorted first (this final sort is small relative to the
// per-record read-modify-write traffic that dominates the KV strategy).
func (s *KVStore) Emit(out core.Output) {
	keys := s.kv.Keys()
	sort.Strings(keys)
	for _, k := range keys {
		v, ok := s.kv.Get(k)
		if !ok {
			continue
		}
		out.Write(k, v)
	}
}
