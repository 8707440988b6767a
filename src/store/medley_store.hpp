#pragma once
// MedleyStore: the DRAM serving store — the single-index BasicMedleyStore
// over one ds::SkipHash, a Fraser skiplist whose nodes are also linked
// into a split-ordered hash list: point operations reach a key's node
// through its bucket, and range/scan enter level 0 at lo's node the same
// way when lo is present (an absent lo pays that probe, then descends),
// then walk the same nodes in order. The bucket table starts at
// StoreConfig::buckets, rounded up to a power of two, and doubles as keys
// accumulate. See basic_store.hpp for the transaction choreography and
// invariants.

#include "ds/fraser_skiplist.hpp"
#include "store/basic_store.hpp"

namespace medley::store {

template <typename K, typename V>
class MedleyStore : public BasicMedleyStore<K, V, ds::SkipHash<K, V>,
                                            ds::SkipHash<K, V>> {
  using Base =
      BasicMedleyStore<K, V, ds::SkipHash<K, V>, ds::SkipHash<K, V>>;

 public:
  explicit MedleyStore(core::TxManager* mgr, StoreConfig cfg = {})
      : Base(mgr, &owned_index_, &owned_index_, cfg),
        owned_index_(mgr, cfg.buckets) {}

 private:
  // Declared after Base (the pointer handed to Base before construction is
  // only dereferenced by operations, never by Base's constructor).
  ds::SkipHash<K, V> owned_index_;
};

}  // namespace medley::store
