#pragma once
// ShardedMedleyStore: hash-partitioned MedleyStore shards under one
// TxDomain (ROADMAP "multi-store sharding with a TxManager per shard").
//
// Each shard owns a full serving stack — a private TxManager, a Michael
// hash primary, a Fraser skiplist secondary, and a change feed — so the
// single-shard fast path (every point op whose key hashes to one shard)
// runs entirely inside the local manager: no other shard's feed tail,
// skiplist head towers, hooks, or stats slots are ever touched. What made
// one store a scalability ceiling was exactly that every thread's mutation
// serialized through ONE feed tail and ONE manager's metadata even when
// the keys never collided; partitioning multiplies those single points by
// the shard count.
//
// The cross-shard machinery (atomic multi_put / read_modify_write_many /
// transact, the sequence-stamp-merged poll_feed — clamped per transaction
// by StoreConfig::feed_drain_per_tx / kMaxFeedDrainPerTx — and the
// aggregated stats) lives in sharded_base.hpp, shared with
// RangeShardedMedleyStore. This class contributes the HASH partitioning
// and the ordered operations it forces:
//
//   shard_of     — finalized hash of the key, masked for power-of-2 shard
//                  counts. Uniform spread, no hotspots, but adjacent keys
//                  land on unrelated shards;
//   range / scan — every shard may hold part of any window, so one
//                  transaction collects each shard's ordered run (level-0
//                  links join the one shared read set) and a k-way merge
//                  produces the global order. A scan therefore pays N
//                  skiplist descents regardless of its span — the measured
//                  YCSB-E cost that RangeShardedMedleyStore
//                  (range_sharded_store.hpp) removes for scan-heavy
//                  workloads. PAPER.md "Layer 5 — sharding" has the
//                  decision table.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "store/sharded_base.hpp"
#include "util/rng.hpp"

namespace medley::store {

template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedMedleyStore
    : public ShardedStoreBase<K, V, ShardedMedleyStore<K, V, Hash>> {
  using Base = ShardedStoreBase<K, V, ShardedMedleyStore<K, V, Hash>>;
  friend Base;

 public:
  using Shard = typename Base::Shard;
  using FeedItem = typename Base::FeedItem;

  explicit ShardedMedleyStore(std::size_t nshards, StoreConfig cfg = {})
      : Base(nshards, cfg) {
    shard_mask_ = (nshards & (nshards - 1)) == 0 ? nshards - 1 : 0;
  }

  // ---- partitioning ------------------------------------------------------

  std::size_t shard_of(const K& k) const {
    // Finalize the hash (std::hash over integers is identity on common
    // stdlibs; unmixed, dense keys would stripe rather than spread).
    const std::uint64_t h = util::mix64(static_cast<std::uint64_t>(Hash{}(k)));
    // Power-of-2 shard counts (the common configuration) mask instead of
    // paying a 64-bit division on every point op.
    if (shard_mask_ != 0 || shards_.size() == 1) {
      return static_cast<std::size_t>(h & shard_mask_);
    }
    return static_cast<std::size_t>(h % shards_.size());
  }

  // ---- merged ordered operations -----------------------------------------

  /// Atomic ordered snapshot of all entries with lo <= key <= hi across
  /// every shard: one transaction collects each shard's window, then a
  /// k-way merge of the sorted runs yields global order (one read-only
  /// snapshot across the shards; see cross_exec_ro). Only lo's own shard
  /// probes for lo (entry_for).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    if (shards_.size() == 1) return shards_[0].store->range(lo, hi);
    std::vector<std::vector<std::pair<K, V>>> runs(shards_.size());
    const std::size_t home = shard_of(lo);
    this->cross_exec_ro([&] {
      for (std::size_t i = 0; i < shards_.size(); i++) {
        runs[i] = shards_[i].store->range(lo, hi, this->entry_for(i, home));
      }
    });
    return merge_runs(runs, std::numeric_limits<std::size_t>::max());
  }

  /// Atomic ordered snapshot of up to `limit` entries with key >= lo.
  /// A shard's share of the global prefix is unknowable in advance, but
  /// hashed keys spread uniformly, so each shard first fetches ~limit/N
  /// (plus slack) and only a shard whose run is consumed to exhaustion
  /// mid-merge fetches deeper — still inside the same transaction, so the
  /// result stays one atomic snapshot. Naively fetching `limit` per shard
  /// would multiply the scan's work and read-set footprint by N (measured
  /// as a YCSB-E collapse at 4+ shards). Only lo's own shard probes for
  /// lo (entry_for); a deeper fetch probes for the run's last key, which
  /// this transaction just read.
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit) {
    const std::size_t n = shards_.size();
    if (limit == 0) return {};
    if (n == 1) return shards_[0].store->scan(lo, limit);
    const std::size_t home = shard_of(lo);
    std::vector<std::pair<K, V>> out;
    this->cross_exec_ro([&] {
      out.clear();
      const std::size_t chunk =
          std::min(limit, limit / n + kScanSlack);
      std::vector<std::vector<std::pair<K, V>>> runs(n);
      std::vector<std::size_t> pos(n, 0);
      // exhausted[i]: the shard truly has no entries past its run's tail
      // (it returned fewer than asked), as opposed to "fetch more".
      std::vector<bool> exhausted(n);
      for (std::size_t i = 0; i < n; i++) {
        runs[i] = shards_[i].store->scan(lo, chunk, this->entry_for(i, home));
        exhausted[i] = runs[i].size() < chunk;
      }
      while (out.size() < limit) {
        std::size_t best = n;
        for (std::size_t i = 0; i < n; i++) {
          if (pos[i] == runs[i].size()) {
            if (exhausted[i]) continue;
            // Run consumed but the shard may hold more: fetch the next
            // chunk starting at the last seen key (inclusive re-read of
            // a key this transaction already registered; dropped below).
            const K& last = runs[i].back().first;
            auto next = shards_[i].store->scan(last, chunk + 1);
            if (!next.empty() && !(next.front().first < last) &&
                !(last < next.front().first)) {
              next.erase(next.begin());
            }
            exhausted[i] = next.size() < chunk;
            runs[i] = std::move(next);
            pos[i] = 0;
            if (runs[i].empty()) {
              exhausted[i] = true;
              continue;
            }
          }
          if (best == n ||
              runs[i][pos[i]].first < runs[best][pos[best]].first) {
            best = i;
          }
        }
        if (best == n) break;  // every shard exhausted
        out.push_back(runs[best][pos[best]++]);
      }
    });
    return out;
  }

 private:
  using Base::shards_;

  /// Extra per-shard entries fetched beyond limit/N on the first scan
  /// pass: absorbs hash-spread variance (~2.3 sigma for 64-entry scans
  /// over 4 shards) so refills stay rare for the short scans serving
  /// workloads issue, without re-introducing N-fold over-fetch.
  static constexpr std::size_t kScanSlack = 8;

  /// K-way merge of per-shard sorted runs (keys are partitioned, so runs
  /// never share a key); keeps at most `limit` smallest entries.
  static std::vector<std::pair<K, V>> merge_runs(
      std::vector<std::vector<std::pair<K, V>>>& runs, std::size_t limit) {
    std::vector<std::pair<K, V>> out;
    std::vector<std::size_t> pos(runs.size(), 0);
    for (;;) {
      if (out.size() >= limit) break;
      std::size_t best = runs.size();
      for (std::size_t i = 0; i < runs.size(); i++) {
        if (pos[i] < runs[i].size() &&
            (best == runs.size() ||
             runs[i][pos[i]].first < runs[best][pos[best]].first)) {
          best = i;
        }
      }
      if (best == runs.size()) break;
      out.push_back(runs[best][pos[best]++]);
    }
    return out;
  }

  std::size_t shard_mask_ = 0;  // nshards-1 for power-of-2 counts, else 0
};

}  // namespace medley::store
