#pragma once
// RangeShardedMedleyStore: contiguous key-range shards for scan-heavy
// workloads (ROADMAP "range-partitioned sharding"; PAPER.md "Layer 5 —
// sharding" has the measured hash-vs-range decision table).
//
// The hash-partitioned store spreads load uniformly but fragments ordered
// locality: adjacent keys land on unrelated shards, so every merged
// range/scan must descend into ALL N skiplists and k-way-merge their runs
// — the measured YCSB-E regression that grows with the shard count. This
// store partitions the key space into N CONTIGUOUS intervals instead:
//
//   RangePartitioner  N-1 sorted boundary keys; shard i owns
//                     [bounds[i-1], bounds[i]) — a boundary key belongs to
//                     the shard to its RIGHT, always (point ops, range
//                     endpoints, and the splitter agree on this, so a
//                     boundary key can never be looked up on one shard and
//                     stored on another);
//   range(lo, hi)     descends only into the shards whose interval
//                     intersects [lo, hi] and CONCATENATES their runs —
//                     contiguous disjoint intervals mean the concatenation
//                     is already globally sorted, no merge;
//   scan(lo, limit)   starts at lo's shard and walks right only until the
//                     limit fills (an empty or short shard just passes
//                     through): a scan of span S touches
//                     ceil(S / shard-span) skiplists, not N.
//
// Everything that is not the partitioning — the per-shard MedleyStore
// stacks under one shared TxDomain, atomic cross-shard
// multi_put/read_modify_write_many/transact, the sequence-stamp-merged
// poll_feed (clamped per transaction by StoreConfig::feed_drain_per_tx /
// kMaxFeedDrainPerTx), and aggregated StoreStats — comes unchanged from
// ShardedStoreBase (sharded_base.hpp), so both sharded stores share one
// correctness argument and one test contract.
//
// The price of contiguity is skew: range partitioning concentrates a hot
// key range (or an append-only insert pattern, which lands every fresh key
// in the LAST shard) on one shard. Two mitigations ship here: the
// seeding-time splitter picks boundaries from a SAMPLE of the initial keys
// (equi-depth quantiles, so a known distribution starts balanced, with an
// explicit uniform fallback when the sample is too thin), and the
// commit-exact per-shard key counts (key_counts() via store_stats.hpp)
// make drift observable before it becomes tail latency. Online
// rebalancing (split/merge of live shards) is queued in ROADMAP.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/sharded_base.hpp"

namespace medley::store {

/// Key-space partitioning by N-1 sorted boundary keys: shard i owns the
/// half-open interval [bounds[i-1], bounds[i]) (shard 0 is unbounded
/// below, shard N-1 unbounded above). A key EQUAL to a boundary routes to
/// the shard on the boundary's right — the single convention every caller
/// (point routing, range endpoints, the splitter) shares.
///
/// Immutable after construction; routing is a binary search over the
/// boundary vector (N is small — single-digit to low-double-digit shard
/// counts — so this is a handful of well-predicted compares per op).
template <typename K>
class RangePartitioner {
 public:
  /// `bounds` must be sorted ascending; equal adjacent bounds are legal
  /// and simply make the shard between them empty (the splitter's
  /// degenerate-sample case). bounds.size() + 1 shards result.
  explicit RangePartitioner(std::vector<K> bounds)
      : bounds_(std::move(bounds)) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
      throw std::invalid_argument(
          "RangePartitioner: boundaries must be sorted ascending");
    }
  }

  /// Seeding-time splitter: equi-depth boundaries from a sample of the
  /// initial key set — boundary j is the sample's (j+1)/nshards quantile,
  /// so each shard starts with roughly sample_size/nshards keys of the
  /// seeded distribution. Falls back to uniform() over the sample's span
  /// when there are fewer distinct samples than shards (a quantile cut
  /// would just manufacture empty shards); with no usable sample at all
  /// (empty, or a single distinct key), integral keys fall back to
  /// uniform() over the full key domain and non-integral keys throw —
  /// there is nothing principled to cut on.
  static RangePartitioner from_samples(std::vector<K> samples,
                                       std::size_t nshards) {
    if (nshards == 0) {
      throw std::invalid_argument("RangePartitioner: nshards must be > 0");
    }
    if (nshards == 1) return RangePartitioner(std::vector<K>{});
    std::sort(samples.begin(), samples.end());
    samples.erase(std::unique(samples.begin(), samples.end()),
                  samples.end());
    if (samples.size() >= nshards) {
      std::vector<K> bounds;
      bounds.reserve(nshards - 1);
      for (std::size_t j = 0; j + 1 < nshards; j++) {
        bounds.push_back(samples[(j + 1) * samples.size() / nshards]);
      }
      return RangePartitioner(std::move(bounds));
    }
    if constexpr (std::is_integral_v<K>) {
      if (samples.size() >= 2) {
        return uniform(samples.front(), samples.back(), nshards);
      }
      return uniform(std::numeric_limits<K>::min(),
                     std::numeric_limits<K>::max(), nshards);
    } else {
      throw std::invalid_argument(
          "RangePartitioner::from_samples: too few distinct samples and no "
          "uniform fallback for non-integral keys");
    }
  }

  /// Uniform fallback: evenly spaced boundaries over [lo, hi] (integral
  /// keys only — uniformity needs arithmetic). Right for keys known to be
  /// dense in a span; equi-depth from_samples beats it for anything
  /// skewed.
  template <typename KK = K,
            typename = std::enable_if_t<std::is_integral_v<KK>>>
  static RangePartitioner uniform(K lo, K hi, std::size_t nshards) {
    if (nshards == 0) {
      throw std::invalid_argument("RangePartitioner: nshards must be > 0");
    }
    if (hi < lo) std::swap(lo, hi);
    // Offset arithmetic in the unsigned image: correct for signed keys
    // (two's complement wraparound yields the true span) and immune to
    // hi - lo overflow.
    using U = std::make_unsigned_t<K>;
    const U span = static_cast<U>(hi) - static_cast<U>(lo);
    std::vector<K> bounds;
    bounds.reserve(nshards - 1);
    for (std::size_t j = 0; j + 1 < nshards; j++) {
      const U off = span / nshards * (j + 1) +
                    span % nshards * (j + 1) / nshards;
      bounds.push_back(static_cast<K>(static_cast<U>(lo) + off));
    }
    return RangePartitioner(std::move(bounds));
  }

  std::size_t shard_count() const { return bounds_.size() + 1; }

  /// Index of the shard owning `k`: the number of boundaries <= k (a
  /// boundary key routes right). Total and stable — every key always has
  /// exactly one home shard.
  std::size_t shard_of(const K& k) const {
    return static_cast<std::size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), k) -
        bounds_.begin());
  }

  /// The contiguous shard interval [first, last] intersecting the
  /// inclusive key interval [lo, hi] — the shards an ordered query must
  /// descend into, and no others.
  std::pair<std::size_t, std::size_t> shard_span(const K& lo,
                                                 const K& hi) const {
    return {shard_of(lo), shard_of(hi)};
  }

  const std::vector<K>& bounds() const { return bounds_; }

 private:
  std::vector<K> bounds_;
};

template <typename K, typename V>
class RangeShardedMedleyStore
    : public ShardedStoreBase<K, V, RangeShardedMedleyStore<K, V>> {
  using Base = ShardedStoreBase<K, V, RangeShardedMedleyStore<K, V>>;
  friend Base;

 public:
  using Shard = typename Base::Shard;
  using FeedItem = typename Base::FeedItem;
  using Partitioner = RangePartitioner<K>;

  /// Explicit partitioning: one shard per interval of `part`.
  explicit RangeShardedMedleyStore(Partitioner part, StoreConfig cfg = {})
      : Base(part.shard_count(), cfg), part_(std::move(part)) {}

  /// Seeding-time splitter ctor: boundaries from a sample of the initial
  /// key set (Partitioner::from_samples — equi-depth quantiles with the
  /// uniform fallback). The sample only PLACES the boundaries; it does not
  /// load any data — seed the store with put/multi_put as usual.
  RangeShardedMedleyStore(std::size_t nshards,
                          const std::vector<K>& seed_keys,
                          StoreConfig cfg = {})
      : RangeShardedMedleyStore(
            Partitioner::from_samples(seed_keys, nshards), cfg) {}

  // ---- partitioning ------------------------------------------------------

  std::size_t shard_of(const K& k) const { return part_.shard_of(k); }
  const Partitioner& partitioner() const { return part_; }

  // ---- ordered operations: interval-pruned, concatenated -----------------

  /// Atomic ordered snapshot of all entries with lo <= key <= hi: only the
  /// shards whose interval intersects [lo, hi] are touched, and their runs
  /// concatenate in shard order — contiguous disjoint intervals make the
  /// concatenation globally sorted with no merge step. A window inside one
  /// shard is that shard's own single-manager transaction. Only lo's own
  /// shard probes for lo (entry_for).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    if (hi < lo) return {};
    const auto [s0, s1] = part_.shard_span(lo, hi);
    if (s0 == s1) return shards_[s0].store->range(lo, hi);
    std::vector<std::pair<K, V>> out;
    this->cross_exec_ro([&] {
      out.clear();
      for (std::size_t i = s0; i <= s1; i++) {
        auto run = shards_[i].store->range(lo, hi, this->entry_for(i, s0));
        out.insert(out.end(), std::make_move_iterator(run.begin()),
                   std::make_move_iterator(run.end()));
      }
    });
    return out;
  }

  /// Atomic ordered snapshot of up to `limit` entries with key >= lo:
  /// start at lo's shard and walk RIGHT, shard by shard, until the limit
  /// fills or the key space ends. Every shard to the right holds only
  /// larger keys, so appending its run preserves global order, a shard
  /// that turns out empty (or shorter than the remainder) simply passes
  /// through to its neighbor, and shards left of lo are never descended
  /// into. When lo routes to the last shard the whole scan is that
  /// shard's own single-manager transaction. Only lo's own shard probes
  /// for lo (entry_for).
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit) {
    if (limit == 0) return {};
    const std::size_t n = shards_.size();
    const std::size_t s0 = part_.shard_of(lo);
    if (s0 + 1 == n) return shards_[s0].store->scan(lo, limit);
    std::vector<std::pair<K, V>> out;
    this->cross_exec_ro([&] {
      out.clear();
      for (std::size_t i = s0; i < n && out.size() < limit; i++) {
        auto run = shards_[i].store->scan(lo, limit - out.size(),
                                          this->entry_for(i, s0));
        out.insert(out.end(), std::make_move_iterator(run.begin()),
                   std::make_move_iterator(run.end()));
      }
    });
    return out;
  }

 private:
  using Base::shards_;

  Partitioner part_;
};

}  // namespace medley::store
