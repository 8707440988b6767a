// The skip hash (ds::SkipHash): a Fraser skiplist whose nodes are also
// linked into one split-ordered hash list, indexed by a bucket table that
// doubles as keys accumulate. Point operations go through the buckets,
// range/scan enter level 0 at lo's node when it is present, and every
// mutation changes both lists in one transaction. Under test: map
// semantics against a std::map oracle, the structural agreement of the
// two views, node reclamation, the bucket-path put racing a remove, read
// validation of an in-place update and of a scan's entry node, bare calls
// running as one-op transactions, table growth under concurrency, the
// spread of strided keys over the buckets, lazy sentinels (linked at once
// whatever the caller's fate, and skipped where the caller's own
// descriptor sits on the link point), and the probe-free kDescend entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ds/fraser_skiplist.hpp"
#include "smr/ebr.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxManager;
using SH = medley::ds::SkipHash<std::uint64_t, std::uint64_t>;
using KV = std::pair<std::uint64_t, std::uint64_t>;

namespace h = medley::test::harness;

namespace {

/// A key type that counts its live instances (a node holds one copy), so
/// node reclamation can be checked by instance.
struct CountedKey {
  CountedKey() { live.fetch_add(1); }
  CountedKey(std::uint64_t x) : v(x) { live.fetch_add(1); }  // NOLINT
  CountedKey(const CountedKey& o) : v(o.v) { live.fetch_add(1); }
  CountedKey& operator=(const CountedKey&) = default;
  ~CountedKey() { live.fetch_sub(1); }
  bool operator<(const CountedKey& o) const { return v < o.v; }
  bool operator==(const CountedKey& o) const { return v == o.v; }
  std::uint64_t v = 0;
  static inline std::atomic<long> live{0};
};

/// A key whose equality test runs a one-shot per-thread hook: it lets a
/// test act at the moment a bucket probe has just found its node.
struct HookedKey {
  HookedKey() = default;
  HookedKey(std::uint64_t x) : v(x) {}  // NOLINT
  bool operator<(const HookedKey& o) const { return v < o.v; }
  bool operator==(const HookedKey& o) const {
    if (hook) std::exchange(hook, nullptr)();
    return v == o.v;
  }
  std::uint64_t v = 0;
  static inline thread_local std::function<void()> hook;
};

}  // namespace

template <>
struct std::hash<CountedKey> {
  std::size_t operator()(const CountedKey& k) const { return k.v; }
};
template <>
struct std::hash<HookedKey> {
  std::size_t operator()(const HookedKey& k) const { return k.v; }
};

namespace {

/// The first n keys >= from that belong to bucket b of a `size`-bucket
/// table (keys are hashed, so a test that needs a layout picks by it).
std::vector<std::uint64_t> keys_in_bucket(std::size_t b, std::size_t size,
                                          std::size_t n,
                                          std::uint64_t from = 1) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = from; out.size() < n; k++) {
    if (SH::bucket_of_key(k, size) == b) out.push_back(k);
  }
  return out;
}

/// The entries of `m` with lo <= key <= hi, ascending.
std::vector<KV> window(const std::map<std::uint64_t, std::uint64_t>& m,
                       std::uint64_t lo, std::uint64_t hi) {
  return {m.lower_bound(lo), m.upper_bound(hi)};
}

}  // namespace

TEST(SkipHash, PointOpsRangeAndBucketCount) {
  TxManager mgr;
  SH s(&mgr, 4);  // four buckets: long, shared chains
  for (std::uint64_t k = 1; k <= 64; k++) ASSERT_FALSE(s.put(k, k).has_value());
  for (std::uint64_t k = 1; k <= 64; k += 2) {
    ASSERT_EQ(s.put(k, k + 100), std::optional<std::uint64_t>(k));
  }
  EXPECT_FALSE(s.insert(3, 0));
  EXPECT_EQ(s.get(3), std::optional<std::uint64_t>(103));
  EXPECT_EQ(s.remove(4), std::optional<std::uint64_t>(4));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.get(4).has_value());
  EXPECT_FALSE(s.remove(4).has_value());
  EXPECT_TRUE(s.insert(4, 44));
  EXPECT_EQ(s.range(2, 5), (std::vector<KV>{{2, 2}, {3, 103}, {4, 44}, {5, 105}}));
  EXPECT_EQ(s.scan(63, 10), (std::vector<KV>{{63, 163}, {64, 64}}));
  EXPECT_EQ(s.size_slow(), 64u);  // counted over the buckets
  EXPECT_EQ(s.keys_slow().size(), 64u);  // counted at level 0
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());

  // A present-key put is two critical CASes on the node and reads nothing.
  mgr.txBegin();
  EXPECT_EQ(s.put(7, 200), std::optional<std::uint64_t>(107));
  EXPECT_EQ(mgr.my_desc()->write_count(), 2);
  EXPECT_EQ(mgr.my_desc()->read_count(), 0);
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(200));
  mgr.txEnd();
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(200));
}

TEST(SkipHash, TransactionsAbortAndReinsertKeepViewsInStep) {
  TxManager mgr;
  SH s(&mgr, 2);
  for (std::uint64_t k = 0; k < 16; k++) s.insert(k, k);
  // Aborted insert, remove and put leave both views as they were.
  try {
    mgr.txBegin();
    s.insert(100, 1);
    s.remove(3);
    s.put(5, 55);
    EXPECT_FALSE(s.contains(3));
    EXPECT_EQ(s.range(99, 101), (std::vector<KV>{{100, 1}}));
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(s.contains(100));
  EXPECT_EQ(s.get(3), std::optional<std::uint64_t>(3));
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(5));
  EXPECT_TRUE(s.buckets_consistent_slow());
  // Remove then re-insert the same key in one transaction: the probe
  // unlinks our own speculatively removed node and links a fresh one.
  medley::execute_tx(mgr, [&] {
    EXPECT_EQ(s.remove(6), std::optional<std::uint64_t>(6));
    EXPECT_FALSE(s.put(6, 66).has_value());
    EXPECT_FALSE(s.insert(6, 67));
    EXPECT_EQ(s.get(6), std::optional<std::uint64_t>(66));
  });
  EXPECT_EQ(s.range(5, 7), (std::vector<KV>{{5, 5}, {6, 66}, {7, 7}}));
  EXPECT_EQ(s.size_slow(), 16u);
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHash, BareCallsRunAsOneOpTransactions) {
  TxManager mgr;
  SH s(&mgr);
  mgr.reset_stats();
  EXPECT_TRUE(s.insert(1, 1));
  EXPECT_EQ(s.put(1, 2), std::optional<std::uint64_t>(1));
  EXPECT_FALSE(s.put(2, 2).has_value());
  EXPECT_EQ(s.remove(1), std::optional<std::uint64_t>(2));
  EXPECT_FALSE(s.remove(1).has_value());
  EXPECT_FALSE(s.insert(2, 3));
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(2));  // reads need none
  const auto st = mgr.stats();
  EXPECT_EQ(st.commits, 6u);
  EXPECT_EQ(st.aborts, 0u);
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHashOracle, PinnedInterleavingMatchesStdMap) {
  // Steps run one at a time under the ScheduleDriver, so a std::map oracle
  // advances in lock-step and every result is compared exactly. Some steps
  // are two-op transactions (move a key).
  TxManager mgr;
  SH s(&mgr, 4);
  std::map<std::uint64_t, std::uint64_t> oracle;
  auto check_get = [&](std::uint64_t k, std::optional<std::uint64_t> got) {
    auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << k;
    if (got) {
      ASSERT_EQ(*got, it->second) << k;
    }
  };
  h::ScheduleDriver d;
  for (int t = 0; t < 3; t++) {
    std::vector<h::ScheduleDriver::Step> steps;
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 501);
    for (int i = 0; i < 120; i++) {
      const auto k = rng.next_bounded(24);
      const auto v = rng.next();
      switch (rng.next_bounded(7)) {
        case 0:
          steps.push_back([&, k, v] {
            ASSERT_EQ(s.insert(k, v), oracle.emplace(k, v).second);
          });
          break;
        case 1:
          steps.push_back([&, k] {
            auto got = s.remove(k);
            check_get(k, got);
            oracle.erase(k);
          });
          break;
        case 2:
          steps.push_back([&, k, v] {
            check_get(k, s.put(k, v));
            oracle[k] = v;
          });
          break;
        case 3:
          steps.push_back([&, k] {
            ASSERT_EQ(s.contains(k), oracle.count(k) == 1);
          });
          break;
        case 4:
          steps.push_back([&, k] {
            const std::size_t n = 1 + k % 6;
            std::vector<KV> want;
            for (auto it = oracle.lower_bound(k);
                 it != oracle.end() && want.size() < n; ++it) {
              want.push_back(*it);
            }
            ASSERT_EQ(s.scan(k, n), want);
          });
          break;
        case 5:
          steps.push_back([&, k] {
            const auto to = (k + 7) % 24;
            std::optional<std::uint64_t> moved;
            medley::execute_tx(mgr, [&] {
              moved = s.remove(k);
              if (moved) s.put(to, *moved);
            });
            check_get(k, moved);
            if (moved) {
              oracle.erase(k);
              oracle[to] = *moved;
            }
          });
          break;
        default:
          steps.push_back([&, k] { check_get(k, s.get(k)); });
          break;
      }
    }
    d.add_thread(std::move(steps));
  }
  d.run(d.shuffled(4242));
  EXPECT_EQ(s.range(0, ~0ULL),
            (std::vector<KV>(oracle.begin(), oracle.end())));
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHashOracle, ConcurrentHistorySatisfiesSetInvariants) {
  TxManager mgr;
  SH s(&mgr, 4);
  std::map<std::uint64_t, std::uint64_t> initial;
  for (std::uint64_t k = 0; k < 16; k += 2) {
    s.insert(k, k + 7000);
    initial[k] = k + 7000;
  }
  h::Recorder rec;
  h::RecordedMap<SH> rm(&s, &rec);
  h::run_seeded(6, 47, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < 1200; i++) {
      const auto k = rng.next_bounded(32);
      const auto v = (static_cast<std::uint64_t>(t) << 32) |
                     static_cast<std::uint64_t>(i);
      switch (rng.next_bounded(5)) {
        case 0: rm.insert(t, k, v); break;
        case 1: rm.remove(t, k); break;
        case 2: rm.put(t, k, v); break;
        case 3: rm.contains(t, k); break;
        default: rm.get(t, k); break;
      }
    }
  });
  EXPECT_TRUE(
      h::check_set_history(rec.history(), initial, h::observed_state(s)));
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHashOracle, PointAndOrderedViewsAgreeInCommittedTransactions) {
  // Mutators toggle key pairs (2p, 2p+1) atomically; readers look a pair
  // up through the buckets (get) and through level 0 (range) in one
  // transaction. A committed reader must see the pair whole in both views
  // and the two views equal.
  TxManager mgr;
  SH s(&mgr, 8);
  constexpr std::uint64_t kPairs = 8;
  for (std::uint64_t p = 0; p < kPairs; p += 2) {
    s.insert(2 * p, p);
    s.insert(2 * p + 1, p);
  }
  std::atomic<bool> torn{false};
  std::atomic<int> committed{0};
  h::run_seeded(6, 2029, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < 600; i++) {
      const auto p = rng.next_bounded(kPairs);
      if (t < 3) {
        medley::execute_tx(mgr, [&] {
          if (s.remove(2 * p)) {
            s.remove(2 * p + 1);
          } else {
            s.put(2 * p, p + 100 * static_cast<std::uint64_t>(i));
            s.put(2 * p + 1, p + 100 * static_cast<std::uint64_t>(i));
          }
        });
        continue;
      }
      std::optional<std::uint64_t> a, b;
      std::vector<KV> r;
      medley::TxExecutor ex;
      auto body = [&] {
        a = s.get(2 * p);
        b = s.get(2 * p + 1);
        r = s.range(2 * p, 2 * p + 1);
      };
      const bool ok = (t == 3 ? ex.execute_ro(mgr, body)
                              : ex.execute(mgr, body))
                          .committed();
      if (!ok) continue;
      committed.fetch_add(1);
      std::vector<KV> want;
      if (a) want.push_back({2 * p, *a});
      if (b) want.push_back({2 * p + 1, *b});
      if (a.has_value() != b.has_value() || (a && *a != *b) || r != want) {
        torn.store(true);
      }
    }
  });
  EXPECT_FALSE(torn.load()) << "a committed reader saw the views disagree";
  EXPECT_GT(committed.load(), 0);
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHash, ReadOnlyGetTornByInPlaceUpdateFailsValidation) {
  // t0 gets key 4 through its bucket; t1 commits an in-place put; t0 tries
  // to commit. Updating key 4 re-writes the level-0 link t0 registered,
  // so t0 fails validation. Updating key 5, in the same single bucket,
  // touches no bucket link, so t0 commits. Read-only and full paths.
  for (const bool ro : {true, false}) {
    for (const std::uint64_t put_key : {4u, 5u}) {
      SCOPED_TRACE(std::string(ro ? "read-only" : "full") + " put " +
                   std::to_string(put_key));
      TxManager mgr;
      SH s(&mgr, 1);
      for (std::uint64_t k = 1; k <= 8; k++) s.insert(k, k);
      std::optional<std::uint64_t> seen;
      std::optional<medley::AbortReason> abort_reason;
      h::ScheduleDriver d;
      d.add_thread({[&] {
                      ro ? mgr.txBeginRO() : mgr.txBegin();
                      seen = s.get(4);
                    },
                    [&] {
                      try {
                        ro ? mgr.txEndRO() : mgr.txEnd();
                      } catch (const TransactionAborted& e) {
                        abort_reason = e.reason();
                      }
                    }});
      d.add_thread({[&] {
        EXPECT_EQ(s.put(put_key, 100 * put_key),
                  std::optional<std::uint64_t>(put_key));
      }});
      d.run({0, 1, 0});
      EXPECT_EQ(seen, std::optional<std::uint64_t>(4));
      if (put_key == 4) {
        ASSERT_TRUE(abort_reason.has_value());
        EXPECT_EQ(*abort_reason, medley::AbortReason::Validation);
      } else {
        EXPECT_FALSE(abort_reason.has_value());
      }
      EXPECT_EQ(s.get(put_key), std::optional<std::uint64_t>(100 * put_key));
    }
  }
}

TEST(SkipHash, BucketPutMeetingCommittedRemoveInsertsFreshNode) {
  // The put's bucket probe finds key 5's node; right then (a hook in the
  // key comparison) another thread removes key 5 and commits. The put
  // then meets the node's marked level-0 link, re-probes, and inserts a
  // fresh node: it returns no previous value, and the remove returned the
  // old one. The window lies inside one put call, so a hook pins it, not
  // the ScheduleDriver.
  TxManager mgr;
  medley::ds::SkipHash<HookedKey, std::uint64_t> s(&mgr, 4);
  for (std::uint64_t k = 1; k <= 8; k++) s.insert(k, k);
  std::optional<std::uint64_t> removed;
  HookedKey::hook = [&] {
    std::thread([&] { removed = s.remove(5); }).join();
  };
  EXPECT_FALSE(s.put(5, 50).has_value());
  EXPECT_FALSE(HookedKey::hook) << "the hook never ran";
  EXPECT_EQ(removed, std::optional<std::uint64_t>(5));
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50));
  EXPECT_EQ(s.size_slow(), 8u);
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHash, RemovedNodesAreFreedExactlyOnce) {
  // Only the remover retires a node; probes and searches that help unlink
  // it from a bucket or a level never do. Counted by key instance: once
  // the EBR limbo drains, the live keys are exactly the live nodes plus
  // the head's, and none are left once the structure is gone.
  auto& ebr = medley::smr::EBR::instance();
  const long base = CountedKey::live.load();
  {
    TxManager mgr;
    medley::ds::SkipHash<CountedKey, std::uint64_t> s(&mgr, 4);
    for (std::uint64_t k = 0; k < 64; k++) s.insert(k, k);
    for (std::uint64_t k = 0; k < 16; k++) s.remove(k);  // bare removes
    for (std::uint64_t k = 16; k < 24; k++) {
      medley::execute_tx(mgr, [&] {  // remove and re-insert in one tx
        s.remove(k);
        s.put(k, k + 1000);
      });
    }
    try {  // an aborted remove
      mgr.txBegin();
      s.remove(30);
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
    h::run_seeded(4, 99, [&](int, medley::util::Xoshiro256& rng) {
      for (int i = 0; i < 2000; i++) {
        const std::uint64_t k = 32 + rng.next_bounded(32);
        switch (rng.next_bounded(3)) {
          case 0: s.insert(k, k); break;
          case 1: s.remove(k); break;
          default: s.put(k, k); break;
        }
      }
    });
    ebr.drain();
    EXPECT_EQ(ebr.limbo_size(), 0u);
    EXPECT_TRUE(s.buckets_consistent_slow());
    EXPECT_EQ(CountedKey::live.load() - base,
              static_cast<long>(s.size_slow()) + 1)
        << "one live key per live node, plus the head's";
  }
  EXPECT_EQ(CountedKey::live.load(), base);
}

TEST(SkipHash, NodeLayout) {
  // The plain form's node is key, level and value cell, then the tower;
  // the hashed form adds one 16-byte hash link before the tower.
  using SL = medley::ds::FraserSkiplist<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(SL::node_bytes(1), 48u);
  EXPECT_EQ(SL::node_bytes(3), 80u);
  EXPECT_EQ(SH::node_bytes(1), 64u);
  EXPECT_EQ(SH::node_bytes(3), 96u);
  TxManager mgr;
  EXPECT_EQ(SH(&mgr, 0).bucket_count(), 1u);
  EXPECT_EQ(SH(&mgr, 5).bucket_count(), 8u);  // rounded up to 2^k
  EXPECT_EQ(SH(&mgr, 64).bucket_count(), 64u);
}

TEST(SkipHashGrowth, TableDoublesWithCommittedKeysAndNodesStayReachable) {
  TxManager mgr;
  SH s(&mgr, 2);
  EXPECT_EQ(s.sentinels_slow(), 1u);  // bucket 0 heads the list
  // More than kMaxLoad keys per bucket doubles the table: n keys need 32.
  const std::uint64_t n = 16 * SH::kMaxLoad + 1;
  for (std::uint64_t k = 0; k < n; k++) ASSERT_TRUE(s.insert(k, k));
  EXPECT_EQ(s.bucket_count(), 32u);
  // An aborted insert batch counts nothing.
  try {
    mgr.txBegin();
    for (std::uint64_t k = 1000; k < 1400; k++) s.insert(k, k);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_EQ(s.bucket_count(), 32u);
  for (std::uint64_t k = 0; k < n; k++) {
    ASSERT_EQ(s.get(k), std::optional<std::uint64_t>(k)) << k;
  }
  for (std::size_t b = 0; b < 32; b++) {  // probe every bucket once more
    s.contains(keys_in_bucket(b, 32, 1)[0]);
  }
  EXPECT_EQ(s.sentinels_slow(), 32u);  // every bucket probed, so linked
  EXPECT_EQ(s.size_slow(), n);
  EXPECT_EQ(s.scan(n - 10, 20).size(), 10u);
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHashGrowth, ConcurrentOpsAcrossDoublingsSatisfySetInvariants) {
  // From 2 buckets, 4 threads insert, remove, put, get and scan while the
  // table doubles several times. Recorded point ops must satisfy the set
  // invariants; every scan must come back ordered and within bounds.
  TxManager mgr;
  SH s(&mgr, 2);
  std::map<std::uint64_t, std::uint64_t> initial;
  for (std::uint64_t k = 0; k < 64; k += 4) {
    s.insert(k, k + 7000);
    initial[k] = k + 7000;
  }
  h::Recorder rec;
  h::RecordedMap<SH> rm(&s, &rec);
  std::atomic<bool> bad_scan{false};
  h::run_seeded(4, 1601, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < 3000; i++) {
      const auto k = rng.next_bounded(4096);
      const auto v = (static_cast<std::uint64_t>(t) << 32) |
                     static_cast<std::uint64_t>(i);
      switch (rng.next_bounded(8)) {
        case 0: case 1: case 2: rm.insert(t, k, v); break;
        case 3: rm.remove(t, k); break;
        case 4: rm.put(t, k, v); break;
        case 5: rm.get(t, k); break;
        case 6: rm.contains(t, k); break;
        default: {
          const std::size_t n = 1 + rng.next_bounded(16);
          const auto r = s.scan(k, n);
          bool ok = r.size() <= n;
          for (std::size_t j = 0; ok && j < r.size(); j++) {
            ok = r[j].first >= k && (j == 0 || r[j - 1].first < r[j].first);
          }
          if (!ok) bad_scan.store(true);
          break;
        }
      }
    }
  });
  EXPECT_FALSE(bad_scan.load());
  EXPECT_GE(s.bucket_count(), 128u) << "the table should have doubled";
  EXPECT_TRUE(
      h::check_set_history(rec.history(), initial, h::observed_state(s)));
  EXPECT_TRUE(s.invariants_hold_slow());
  EXPECT_TRUE(s.buckets_consistent_slow());
}

TEST(SkipHashGrowth, StridedAndShardRoutedKeysSpreadOverTheBuckets) {
  // Keys are hashed through a finalizer, so keys that share their low
  // bits (strides of 2^10 and 2^20) or their finalized low bits (the keys
  // one of eight ShardedMedleyStore shards holds: shard_of masks the same
  // finalizer's low bits) still spread over every bucket, and no bucket's
  // chain grows far past kMaxLoad as the table grows.
  constexpr std::size_t n = 20000;
  std::vector<std::vector<std::uint64_t>> sets(3);
  for (std::uint64_t i = 0; i < n; i++) {
    sets[0].push_back(i << 10);
    sets[1].push_back(i << 20);
  }
  for (std::uint64_t k = 0; sets[2].size() < n; k++) {
    if ((medley::util::mix64(k) & 7) == 0) sets[2].push_back(k);
  }
  for (const auto& keys : sets) {
    TxManager mgr;
    SH s(&mgr, 64);
    for (const std::uint64_t k : keys) ASSERT_TRUE(s.insert(k, k));
    EXPECT_EQ(s.bucket_count(), 4096u);  // n / kMaxLoad, rounded up
    EXPECT_LE(s.max_bucket_load_slow(), 4u * SH::kMaxLoad)
        << "first key " << keys[1];
  }
}

namespace {

/// Keys that grow a 2-bucket table to 4.
constexpr std::uint64_t kOddKeys = 2 * SH::kMaxLoad + 1;

/// A table grown to 4 buckets with keys of the odd buckets 1 and 3 only,
/// so bucket 2's sentinel (ordered after every key of bucket 0, before
/// every key of bucket 2) is not linked yet. Returns the inserted entries.
std::map<std::uint64_t, std::uint64_t> grow_with_odd_bucket_keys(SH& s) {
  std::map<std::uint64_t, std::uint64_t> m;
  for (const std::uint64_t k : keys_in_bucket(1, 2, kOddKeys)) {
    EXPECT_TRUE(s.insert(k, k));
    m[k] = k;
  }
  EXPECT_EQ(s.bucket_count(), 4u);
  EXPECT_EQ(s.sentinels_slow(), 2u);  // buckets 0 and 1
  return m;
}

}  // namespace

TEST(SkipHashSentinels, OwnDescriptorOnTheLinkPointSkipsTheSentinel) {
  // The transaction links key a (bucket 0's only key, so right after
  // bucket 0's sentinel), then touches bucket 2, whose sentinel belongs
  // right after a: the link point holds the transaction's own descriptor.
  // A plain CAS there would finalize, and so abort, the caller; the probe
  // starts from bucket 0 instead. Both outcomes leave the list
  // consistent, and the next touch links the sentinel.
  const std::uint64_t a = keys_in_bucket(0, 4, 1)[0];
  const auto in2 = keys_in_bucket(2, 4, 2);
  const std::uint64_t b = in2[0], c = in2[1];
  for (const bool commit : {true, false}) {
    SCOPED_TRACE(commit ? "commit" : "abort");
    TxManager mgr;
    SH s(&mgr, 2);
    auto oracle = grow_with_odd_bucket_keys(s);
    auto spec = oracle;
    spec[a] = 40;
    spec[b] = 20;
    mgr.txBegin();
    EXPECT_TRUE(s.insert(a, 40));
    EXPECT_TRUE(s.insert(b, 20));  // bucket 2: the caller is not aborted
    EXPECT_EQ(s.get(b), std::optional<std::uint64_t>(20));
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    EXPECT_EQ(s.range(lo, hi), window(spec, lo, hi));
    if (commit) {
      mgr.txEnd();
    } else {
      try {
        mgr.txAbort();
      } catch (const TransactionAborted&) {
      }
    }
    EXPECT_EQ(s.sentinels_slow(), 2u) << "skipped, not linked";
    EXPECT_TRUE(s.buckets_consistent_slow());
    EXPECT_EQ(s.contains(b), commit);
    EXPECT_EQ(s.sentinels_slow(), 3u) << "the next touch links bucket 2";
    EXPECT_EQ(s.contains(a), commit);
    EXPECT_TRUE(s.insert(c, 60));  // lands after bucket 2's sentinel
    EXPECT_TRUE(s.buckets_consistent_slow());
    EXPECT_EQ(s.size_slow(), kOddKeys + (commit ? 3 : 1));
  }
}

TEST(SkipHashSentinels, SentinelLinkedByAnAbortedTransactionStaysLinked) {
  // Sentinels are structure, not state: the one a transaction links on
  // its first touch of bucket 2 stays linked after the transaction
  // aborts, from a full or a read-only transaction, and the bucket keeps
  // working from it.
  const auto in2 = keys_in_bucket(2, 4, 2);
  const std::uint64_t fresh = 1'000'001;
  for (const bool ro : {false, true}) {
    SCOPED_TRACE(ro ? "read-only" : "full");
    TxManager mgr;
    SH s(&mgr, 2);
    auto oracle = grow_with_odd_bucket_keys(s);
    try {
      ro ? mgr.txBeginRO() : mgr.txBegin();
      EXPECT_FALSE(s.get(in2[1]).has_value());
      if (!ro) {
        EXPECT_TRUE(s.insert(fresh, 1));
      }
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
    EXPECT_EQ(s.sentinels_slow(), 3u);
    EXPECT_TRUE(s.buckets_consistent_slow());
    EXPECT_FALSE(s.contains(fresh));
    EXPECT_TRUE(s.insert(in2[1], 60));
    EXPECT_TRUE(s.insert(in2[0], 20));
    oracle[in2[1]] = 60;
    oracle[in2[0]] = 20;
    EXPECT_EQ(s.range(0, fresh), window(oracle, 0, fresh));
    EXPECT_TRUE(s.buckets_consistent_slow());
  }
}

TEST(SkipHashScanEntry, EntryNodeEvidenceCatchesChangesAtLo) {
  // A scan from a present lo enters level 0 at lo's node. Before the
  // scanning transaction commits, a peer removes lo, inserts a key right
  // after lo, or updates lo in place: each fails its validation. A change
  // to an unrelated key lets it commit. Read-only and full paths.
  enum class Peer { RemoveLo, InsertAfterLo, UpdateLo, Unrelated };
  for (const bool ro : {true, false}) {
    for (const Peer peer : {Peer::RemoveLo, Peer::InsertAfterLo,
                            Peer::UpdateLo, Peer::Unrelated}) {
      SCOPED_TRACE(std::string(ro ? "read-only" : "full") + " peer " +
                   std::to_string(static_cast<int>(peer)));
      TxManager mgr;
      SH s(&mgr, 4);
      for (std::uint64_t k = 1; k <= 12; k++) {
        if (k != 5) s.insert(k, k);
      }
      std::vector<KV> seen;
      std::optional<medley::AbortReason> abort_reason;
      h::ScheduleDriver d;
      d.add_thread({[&] {
                      ro ? mgr.txBeginRO() : mgr.txBegin();
                      seen = s.scan(4, 3);
                    },
                    [&] {
                      try {
                        ro ? mgr.txEndRO() : mgr.txEnd();
                      } catch (const TransactionAborted& e) {
                        abort_reason = e.reason();
                      }
                    }});
      d.add_thread({[&] {
        switch (peer) {
          case Peer::RemoveLo: EXPECT_TRUE(s.remove(4).has_value()); break;
          case Peer::InsertAfterLo: EXPECT_TRUE(s.insert(5, 5)); break;
          case Peer::UpdateLo: EXPECT_TRUE(s.put(4, 44).has_value()); break;
          case Peer::Unrelated:
            EXPECT_TRUE(s.put(11, 111).has_value());
            break;
        }
      }});
      d.run({0, 1, 0});
      EXPECT_EQ(seen, (std::vector<KV>{{4, 4}, {6, 6}, {7, 7}}));
      if (peer == Peer::Unrelated) {
        EXPECT_FALSE(abort_reason.has_value());
      } else {
        ASSERT_TRUE(abort_reason.has_value());
        EXPECT_EQ(*abort_reason, medley::AbortReason::Validation);
      }
    }
  }
}

TEST(SkipHashScanEntry, EntryPathMatchesTheDescentPath) {
  // Present and absent lo give the same windows, inside a transaction that
  // removed, re-inserted and added keys around them too.
  TxManager mgr;
  SH s(&mgr, 2);
  for (std::uint64_t k = 0; k < 100; k += 3) s.insert(k, k);
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t k = 0; k < 100; k += 3) oracle[k] = k;
  medley::execute_tx(mgr, [&] {
    s.remove(30);
    s.put(31, 310);
    s.remove(33);
    s.put(33, 330);
  });
  oracle.erase(30);
  oracle[31] = 310;
  oracle[33] = 330;
  for (std::uint64_t lo = 0; lo < 105; lo++) {
    std::vector<KV> want;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && want.size() < 4; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(s.scan(lo, 4), want) << lo;
  }
}

TEST(SkipHashScanEntry, DescendEntrySkipsTheProbe) {
  // ScanEntry::kDescend goes straight to the descent: it links no
  // sentinel, and returns the same windows as kProbe for present and
  // absent lo alike.
  using medley::ds::ScanEntry;
  TxManager mgr;
  SH s(&mgr, 1024);  // few keys per bucket: most sentinels stay unlinked
  for (std::uint64_t k = 0; k < 200; k += 2) s.insert(k, k);
  const std::size_t linked = s.sentinels_slow();
  std::vector<std::vector<KV>> scans, ranges;
  for (std::uint64_t lo = 0; lo < 210; lo++) {
    scans.push_back(s.scan(lo, 5, ScanEntry::kDescend));
    ranges.push_back(s.range(lo, lo + 9, ScanEntry::kDescend));
  }
  EXPECT_EQ(s.sentinels_slow(), linked) << "a kDescend read probed";
  for (std::uint64_t lo = 0; lo < 210; lo++) {
    ASSERT_EQ(s.scan(lo, 5), scans[lo]) << lo;
    ASSERT_EQ(s.range(lo, lo + 9), ranges[lo]) << lo;
  }
  EXPECT_GT(s.sentinels_slow(), linked) << "kProbe reads link sentinels";
}
