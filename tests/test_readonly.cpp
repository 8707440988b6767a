// Read-only transaction mode (tx_domain.hpp begin_ro/end_ro,
// TxExecutor::execute_ro — the path every top-level store read takes).
// Invariants under test:
//   R1  a read-only transaction never publishes the thread descriptor:
//       committed snapshot reads leave its status word untouched;
//   R2  write-in-read-only falls back transparently to a full transaction
//       and bills exactly one logical op (one commit, zero aborts, zero
//       retries — a mis-declared body is a mode switch, not contention);
//   R3  a torn snapshot aborts once under Validation, and the fallback's
//       full transaction commits: one validation abort + one retry + one
//       commit, at both the TxStats and the TxManager level; validation
//       never aborts a writer still installing on a logged cell;
//   R4  the policy still governs the fallback: a bounded budget or a
//       non-retried reason is terminal, with no hidden extra attempts;
//   R5  under concurrent writers, read-only range/scan snapshots are never
//       torn — pair-sum conservation holds in every committed snapshot,
//       single-store and sharded (merged range) alike;
//   R6  StoreConfig::feed_drain_per_tx is construction-validated: 0
//       throws, values above kMaxFeedDrainPerTx clamp (satellite bugfix).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ds/michael_hashtable.hpp"
#include "store/range_sharded_store.hpp"
#include "store/sharded_store.hpp"
#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::AbortReason;
using medley::ReadOnlyViolation;
using medley::TransactionAborted;
using medley::TxExecutor;
using medley::TxPolicy;
using medley::core::TxManager;
using medley::store::kMaxFeedDrainPerTx;
using medley::store::MedleyStore;
using medley::store::RangeShardedMedleyStore;
using medley::store::ShardedMedleyStore;
using medley::store::StoreConfig;
using medley::test::run_threads;

namespace h = medley::test::harness;

using Map = medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t>;
using Store = MedleyStore<std::uint64_t, std::uint64_t>;

namespace {

StoreConfig small_cfg(std::size_t buckets = 256) {
  StoreConfig cfg;
  cfg.buckets = buckets;
  return cfg;
}

// ---- R1: no descriptor publication ----------------------------------------

TEST(ReadOnly, SnapshotReadsLeaveDescriptorUntouched) {
  TxManager mgr;
  Store s(&mgr, small_cfg());
  for (std::uint64_t k = 0; k < 16; k++) s.put(k, k * 10);

  const std::uint64_t status_before = mgr.my_desc()->status();
  mgr.reset_stats();

  for (std::uint64_t k = 0; k < 16; k++) {
    auto v = s.get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k * 10);
  }
  EXPECT_FALSE(s.get(999).has_value());
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(999));
  auto r = s.range(2, 5);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.front().second, 20u);

  // Every read committed as a read-only transaction: the descriptor was
  // never begun (same status word — no new incarnation), yet the root
  // manager was billed one commit per operation and no aborts.
  EXPECT_EQ(mgr.my_desc()->status(), status_before);
  auto st = mgr.stats();
  EXPECT_EQ(st.commits, 20u);
  EXPECT_EQ(st.aborts, 0u);
}

TEST(ReadOnly, ExecutorRunsReadOnlyBody) {
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 10);
  m.put(2, 20);

  TxExecutor ex;
  auto res = ex.execute_ro(mgr, [&] {
    return m.get(1).value_or(0) + m.get(2).value_or(0);
  });
  ASSERT_TRUE(res.committed());
  EXPECT_EQ(*res.value, 30u);
  EXPECT_EQ(res.stats.commits, 1u);
  EXPECT_EQ(res.stats.aborts(), 0u);
  EXPECT_EQ(res.stats.retries, 0u);
}

// ---- R2: write-in-read-only fallback --------------------------------------

TEST(ReadOnly, WriteInReadOnlyFallsBackUnbilled) {
  TxManager mgr;
  Map m(&mgr, 64);
  mgr.reset_stats();

  TxExecutor ex;
  auto res = ex.execute_ro(mgr, [&] {
    // Reads first, so the snapshot attempt makes real progress before the
    // write surfaces the mis-declaration.
    auto v = m.get(5).value_or(0);
    m.put(5, v + 1);
  });
  ASSERT_TRUE(res.committed());
  EXPECT_EQ(m.get(5).value_or(0), 1u);

  // Exactly one logical op: the abandoned snapshot attempt is billed
  // nowhere — not as an abort, not as a retry, not at the manager.
  EXPECT_EQ(res.stats.commits, 1u);
  EXPECT_EQ(res.stats.aborts(), 0u);
  EXPECT_EQ(res.stats.retries, 0u);
  auto st = mgr.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.aborts, 0u);
}

TEST(ReadOnly, StoreWriteInsideAmbientReadOnlyFallsBack) {
  TxManager mgr;
  Store s(&mgr, small_cfg());
  s.put(1, 100);
  mgr.reset_stats();

  // A store op inside an open snapshot flat-nests; its write throws
  // ReadOnlyViolation out of the body and the executor re-runs in full.
  TxExecutor ex;
  auto res = ex.execute_ro(mgr, [&] {
    auto v = s.get(1);
    s.put(2, v.value_or(0) + 1);
  });
  ASSERT_TRUE(res.committed());
  EXPECT_EQ(s.get(2).value_or(0), 101u);
  EXPECT_EQ(res.stats.commits, 1u);
  EXPECT_EQ(res.stats.aborts(), 0u);
  EXPECT_EQ(mgr.stats().aborts, 0u);
}

TEST(ReadOnly, UserAbortInsideSnapshotIsTerminal) {
  TxManager mgr;
  Map m(&mgr, 64);
  mgr.reset_stats();

  TxExecutor ex;
  auto res = ex.execute_ro(mgr, [&]() -> std::uint64_t {
    if (!m.get(1)) mgr.txAbort();  // business rule, not a write
    return *m.get(1);
  });
  EXPECT_FALSE(res.committed());
  ASSERT_TRUE(res.terminal.has_value());
  EXPECT_EQ(*res.terminal, AbortReason::User);
  EXPECT_EQ(res.stats.user_aborts, 1u);
  EXPECT_EQ(res.stats.retries, 0u);
  auto st = mgr.stats();
  EXPECT_EQ(st.user_aborts, 1u);
  EXPECT_EQ(st.commits, 0u);
}

TEST(ReadOnly, ForeignExceptionClosesSnapshotAttempt) {
  TxManager mgr;
  Map m(&mgr, 64);

  TxExecutor ex;
  EXPECT_THROW(ex.execute_ro(mgr,
                             [&] {
                               (void)m.get(1);
                               throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  EXPECT_FALSE(mgr.in_tx()) << "snapshot attempt leaked an open transaction";
  // The thread is reusable for both modes afterwards.
  EXPECT_TRUE(ex.execute_ro(mgr, [&] { (void)m.get(1); }).committed());
  EXPECT_TRUE(ex.execute(mgr, [&] { m.put(1, 1); }).committed());
}

// ---- R3: torn snapshot -> one validation abort + one retried full tx ------

TEST(ReadOnly, ValidationFailureFallsBackBilledOnce) {
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 1);
  // The conflicting writer roots at a second manager of the same domain,
  // so `mgr`'s billing isolates the reader's side exactly.
  TxManager wmgr(mgr.domain_ptr());
  mgr.reset_stats();

  bool first_attempt = true;
  TxExecutor ex;
  auto res = ex.execute_ro(mgr, [&]() -> std::uint64_t {
    auto v = m.get(1).value_or(0);
    if (first_attempt) {
      first_attempt = false;
      // Commit a conflicting write between the snapshot's read and its
      // validation: the logged {value, counter} pair is now stale.
      std::thread t(
          [&] { medley::execute_tx(wmgr, [&] { m.put(1, 99); }); });
      t.join();
    }
    return v;
  });

  ASSERT_TRUE(res.committed());
  EXPECT_EQ(*res.value, 99u) << "fallback did not observe the new value";
  // One logical op across the mode switch: the snapshot attempt bills one
  // validation abort and one retry, the full transaction one commit.
  EXPECT_EQ(res.stats.commits, 1u);
  EXPECT_EQ(res.stats.validation_aborts, 1u);
  EXPECT_EQ(res.stats.conflict_aborts, 0u);
  EXPECT_EQ(res.stats.retries, 1u);
  auto st = mgr.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.validation_aborts, 1u);
  EXPECT_EQ(st.aborts, 1u);
}

TEST(ReadOnly, SchedulePinnedValidationFailureRetry) {
  // t0 opens a read-only transaction and reads k; t1 commits a conflicting
  // put mid-flight; t0's txEndRO must fail validation, and the full-mode
  // retry then observes the writer's value. Deterministic interleaving.
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 1);
  TxManager wmgr(mgr.domain_ptr());
  mgr.reset_stats();

  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> retried_value{0};

  h::ScheduleDriver d;
  d.add_thread({
      [&] {
        mgr.txBeginRO();
        (void)m.get(1);
      },
      [&] {
        try {
          mgr.txEndRO();
        } catch (const TransactionAborted& e) {
          torn.store(e.reason() == AbortReason::Validation);
        }
        // The retry a TxExecutor would issue: a full transaction.
        auto res = medley::execute_tx(mgr, [&] { return *m.get(1); });
        retried_value.store(*res.value);
      },
  });
  d.add_thread({
      [&] { medley::execute_tx(wmgr, [&] { m.put(1, 77); }); },
  });
  d.run({0, 1, 0});

  EXPECT_TRUE(torn.load())
      << "txEndRO validated a snapshot a writer tore mid-flight";
  EXPECT_EQ(retried_value.load(), 77u);
  auto st = mgr.stats();
  EXPECT_EQ(st.validation_aborts, 1u);
  EXPECT_EQ(st.commits, 1u);
}

TEST(ReadOnly, TornValidationLeavesPreparingWriterAlone) {
  // t0 snapshots k; t1 opens a full transaction and installs its write on
  // k's cell but has not committed. t0's txEndRO must fail validation
  // without finalizing t1's descriptor — which would abort t1 — so t1's
  // commit then succeeds. Deterministic interleaving.
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 1);
  TxManager wmgr(mgr.domain_ptr());

  std::atomic<bool> torn{false}, writer_committed{false};
  h::ScheduleDriver d;
  d.add_thread({
      [&] {
        mgr.txBeginRO();
        (void)m.get(1);
      },
      [&] {
        try {
          mgr.txEndRO();
        } catch (const TransactionAborted& e) {
          torn.store(e.reason() == AbortReason::Validation);
        }
      },
  });
  d.add_thread({
      [&] {
        wmgr.txBegin();
        m.put(1, 2);
      },
      [&] {
        try {
          wmgr.txEnd();
          writer_committed.store(true);
        } catch (const TransactionAborted&) {
        }
      },
  });
  d.run({0, 1, 0, 1});

  EXPECT_TRUE(torn.load()) << "txEndRO validated a cell a writer holds";
  EXPECT_TRUE(writer_committed.load())
      << "snapshot validation aborted a still-preparing writer";
  EXPECT_EQ(m.get(1), std::optional<std::uint64_t>(2));
}

// ---- R4: the policy governs the fallback ----------------------------------

TEST(ReadOnly, BoundedBudgetMakesTornSnapshotTerminal) {
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 1);
  TxManager wmgr(mgr.domain_ptr());

  for (const TxPolicy& p :
       {TxPolicy::bounded(1), [] {
          TxPolicy q;
          q.retry_validation = false;
          return q;
        }()}) {
    mgr.reset_stats();
    bool first_attempt = true;
    TxExecutor ex(p);
    auto res = ex.execute_ro(mgr, [&]() -> std::uint64_t {
      auto v = m.get(1).value_or(0);
      if (first_attempt) {
        first_attempt = false;
        std::thread t(
            [&] { medley::execute_tx(wmgr, [&] { m.put(1, v + 1); }); });
        t.join();
      }
      return v;
    });
    EXPECT_FALSE(res.committed());
    ASSERT_TRUE(res.terminal.has_value());
    EXPECT_EQ(*res.terminal, AbortReason::Validation);
    EXPECT_EQ(res.stats.validation_aborts, 1u);
    EXPECT_EQ(res.stats.retries, 0u);
    EXPECT_EQ(mgr.stats().commits, 0u);
  }
}

TEST(ReadOnly, SnapshotAttemptConsumesOneBudgetSlot) {
  // max_attempts = 2: the torn snapshot is attempt 0, the fallback full
  // transaction attempt 1 — it commits, and no third attempt exists.
  TxManager mgr;
  Map m(&mgr, 64);
  m.put(1, 1);
  TxManager wmgr(mgr.domain_ptr());

  bool first_attempt = true;
  TxExecutor ex(TxPolicy::bounded(2));
  auto res = ex.execute_ro(mgr, [&]() -> std::uint64_t {
    auto v = m.get(1).value_or(0);
    if (first_attempt) {
      first_attempt = false;
      std::thread t(
          [&] { medley::execute_tx(wmgr, [&] { m.put(1, 42); }); });
      t.join();
    }
    return v;
  });
  ASSERT_TRUE(res.committed());
  EXPECT_EQ(*res.value, 42u);
  EXPECT_EQ(res.stats.validation_aborts + res.stats.retries, 2u);
}

// ---- R5: snapshot consistency under concurrent writers --------------------

TEST(ReadOnly, TornSnapshotNeverObservedUnderWriters) {
  // Pair-sum conservation: keys {2i, 2i+1} always sum to kSum. Writers
  // rebalance pairs atomically (multi_put); 8 threads of read-only range
  // snapshots must never see a half-applied pair. A churn writer inserts
  // and removes keys in a disjoint band so snapshot walks also cross
  // marked nodes (the help-unlink -> validation-abort -> fallback path).
  constexpr std::uint64_t kPairs = 16;
  constexpr std::uint64_t kSum = 1000;
  constexpr std::uint64_t kChurnBase = 1000;
  constexpr int kIters = 300;

  TxManager mgr;
  Store s(&mgr, small_cfg(512));
  for (std::uint64_t i = 0; i < kPairs; i++) {
    s.multi_put({{2 * i, kSum / 2}, {2 * i + 1, kSum - kSum / 2}});
  }

  std::atomic<bool> torn{false};
  run_threads(8, [&](int t) {
    medley::util::Xoshiro256 rng(0x9e3779b9u + static_cast<std::uint64_t>(t));
    if (t < 3) {  // pair rebalancers
      for (int it = 0; it < kIters; it++) {
        const std::uint64_t i = rng.next() % kPairs;
        const std::uint64_t x = rng.next() % (kSum + 1);
        s.multi_put({{2 * i, x}, {2 * i + 1, kSum - x}});
      }
    } else if (t == 3) {  // churn in the disjoint band
      for (int it = 0; it < kIters; it++) {
        const std::uint64_t k = kChurnBase + rng.next() % 32;
        s.put(k, k);
        s.del(k);
      }
    } else {  // read-only snapshot readers
      for (int it = 0; it < kIters; it++) {
        const std::uint64_t i = rng.next() % kPairs;
        auto pair = s.range(2 * i, 2 * i + 1);
        if (pair.size() != 2 ||
            pair[0].second + pair[1].second != kSum) {
          torn.store(true);
        }
        auto all = s.scan(0, 2 * kPairs);
        std::uint64_t total = 0;
        std::uint64_t in_band = 0;
        for (const auto& [k, v] : all) {
          if (k < 2 * kPairs) {
            total += v;
            in_band++;
          } else if (v != k) {
            torn.store(true);  // churn key with a foreign value
          }
        }
        if (in_band == 2 * kPairs && total != kPairs * kSum) {
          torn.store(true);
        }
      }
    }
  });
  EXPECT_FALSE(torn.load()) << "a read-only snapshot observed a torn state";
  auto st = s.stats();
  EXPECT_GE(st.commits, 8u * kIters);
}

template <typename Sharded>
void merged_snapshot_conservation(Sharded& s, std::uint64_t nkeys) {
  // Total-sum conservation across shards: transfers move value between
  // two random keys inside one cross-shard transaction; merged read-only
  // range/scan snapshots must always total nkeys * 100.
  constexpr int kIters = 200;
  const std::uint64_t expected_total = nkeys * 100;
  for (std::uint64_t k = 0; k < nkeys; k++) s.put(k, 100);

  std::atomic<bool> torn{false};
  run_threads(8, [&](int t) {
    medley::util::Xoshiro256 rng(0xdecafbad + static_cast<std::uint64_t>(t));
    if (t < 4) {  // transfer writers
      for (int it = 0; it < kIters; it++) {
        const std::uint64_t a = rng.next() % nkeys;
        const std::uint64_t b = rng.next() % nkeys;
        if (a == b) continue;
        s.transact([&] {
          const std::uint64_t va = *s.get(a);
          const std::uint64_t vb = *s.get(b);
          if (va == 0) return;
          s.put(a, va - 1);
          s.put(b, vb + 1);
        });
      }
    } else {  // merged snapshot readers
      for (int it = 0; it < kIters; it++) {
        auto all = (it & 1) ? s.range(0, nkeys - 1) : s.scan(0, nkeys);
        if (all.size() != nkeys) {
          torn.store(true);
          continue;
        }
        std::uint64_t total = 0;
        for (const auto& [k, v] : all) total += v;
        if (total != expected_total) torn.store(true);
      }
    }
  });
  EXPECT_FALSE(torn.load())
      << "a merged read-only snapshot observed a torn cross-shard state";
}

TEST(ReadOnly, ShardedMergedRangeSnapshotConsistent) {
  ShardedMedleyStore<std::uint64_t, std::uint64_t> s(4, small_cfg(512));
  merged_snapshot_conservation(s, 24);
}

TEST(ReadOnly, RangeShardedMergedRangeSnapshotConsistent) {
  RangeShardedMedleyStore<std::uint64_t, std::uint64_t> s(
      RangeShardedMedleyStore<std::uint64_t, std::uint64_t>::
          Partitioner::uniform(0, 24, 4),
      small_cfg(512));
  merged_snapshot_conservation(s, 24);
}

// ---- R6: StoreConfig::feed_drain_per_tx validation (satellite) ------------

TEST(StoreConfigValidation, FeedDrainZeroThrows) {
  TxManager mgr;
  StoreConfig cfg;
  cfg.feed_drain_per_tx = 0;
  EXPECT_THROW(Store(&mgr, cfg), std::invalid_argument);
  EXPECT_THROW((ShardedMedleyStore<std::uint64_t, std::uint64_t>(2, cfg)),
               std::invalid_argument);
}

TEST(StoreConfigValidation, FeedDrainAboveCapClampsWithContract) {
  TxManager mgr;
  StoreConfig cfg;
  cfg.feed_drain_per_tx = kMaxFeedDrainPerTx * 10;
  Store s(&mgr, cfg);
  EXPECT_EQ(s.config().feed_drain_per_tx, kMaxFeedDrainPerTx)
      << "config() must report the clamped, effective drain";

  ShardedMedleyStore<std::uint64_t, std::uint64_t> sh(2, cfg);
  EXPECT_EQ(sh.shard(0).config().feed_drain_per_tx, kMaxFeedDrainPerTx);

  // The clamped value drains: a burst deeper than one transaction's clamp
  // comes out across calls, never zero-at-a-time.
  for (std::uint64_t k = 0; k < 8; k++) s.put(k, k);
  EXPECT_EQ(s.poll_feed(100).size(), 8u);
}

}  // namespace
