// Flat-combining group commit (core/combiner.hpp + StoreConfig::combining).
// Contracts under test:
//   C1  semantics: combined put/del/rmw return and apply exactly what the
//       eager path would — a batch IS one transaction (all-or-nothing),
//       and every publishing thread gets ITS op's result;
//   C2  handoff: a waiter whose op was executed by another thread's batch
//       completes without ever taking the combiner lock, under both
//       handoff policies and under churn;
//   C3  invariants: the store's I1-I3 (primary/secondary/feed mutual
//       consistency) hold with combining on, including at 8 threads;
//   C4  billing: N combined ops read as exactly N logical ops in
//       StoreStats and the metrics registry (the batch bills its aborts,
//       each submitter its commit), and the batch-size histogram is
//       visible in dump_metrics();
//   C5  validation: the combining knobs obey the feed_drain_per_tx
//       contract (zero throws, over-cap clamps, config() reports the
//       effective values);
//   C6  async: TxFuture pipelining — deferred resolution, slot-exhaustion
//       fallback to eager execution, error propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "store/range_sharded_store.hpp"
#include "store/sharded_store.hpp"
#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxExecutor;
using medley::TxManager;
using medley::TxPolicy;
using medley::core::CombinerHandoff;
using medley::store::MedleyStore;
using medley::store::RangeShardedMedleyStore;
using medley::store::ShardedMedleyStore;
using medley::store::StoreConfig;
using Store = MedleyStore<std::uint64_t, std::uint64_t>;
using Sharded = ShardedMedleyStore<std::uint64_t, std::uint64_t>;

namespace h = medley::test::harness;

namespace {

StoreConfig comb_cfg(std::size_t buckets = 128,
                     CombinerHandoff handoff = CombinerHandoff::kSticky) {
  StoreConfig cfg;
  cfg.buckets = buckets;
  cfg.combining.enabled = true;
  cfg.combining.handoff = handoff;
  return cfg;
}

/// I1 checked quiescently (the test_store helper, local to each TU): the
/// level-0 snapshot against the bucket view, plus the bucket audit.
template <typename S>
::testing::AssertionResult mutually_consistent(S& store) {
  auto snapshot = store.range(0, ~0ULL);
  for (const auto& [k, v] : snapshot) {
    auto p = store.get(k);
    if (!p) {
      return ::testing::AssertionFailure()
             << "key " << k << " in secondary but not primary";
    }
    if (*p != v) {
      return ::testing::AssertionFailure()
             << "key " << k << ": primary=" << *p << " secondary=" << v;
    }
  }
  const std::size_t psize = store.primary().size_slow();
  if (psize != snapshot.size()) {
    return ::testing::AssertionFailure()
           << "primary holds " << psize << " keys, secondary "
           << snapshot.size();
  }
  if constexpr (S::kSingleIndex) {
    if (!store.primary().buckets_consistent_slow()) {
      return ::testing::AssertionFailure()
             << "a bucket and level 0 disagree on a node";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// ---- C5: StoreConfig::combining validation --------------------------------

TEST(CombiningConfig, ZeroSlotsThrows) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.slots = 0;
  EXPECT_THROW(Store(&mgr, cfg), std::invalid_argument);
  EXPECT_THROW((Sharded(2, cfg)), std::invalid_argument);
}

TEST(CombiningConfig, ZeroMaxBatchThrows) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.max_batch = 0;
  EXPECT_THROW(Store(&mgr, cfg), std::invalid_argument);
}

TEST(CombiningConfig, OverCapKnobsClampWithContract) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg();
  cfg.combining.slots = medley::core::kMaxCombinerSlots * 4;
  cfg.combining.max_batch = medley::core::kMaxCombinedBatch * 100;
  Store s(&mgr, cfg);
  EXPECT_EQ(s.config().combining.slots, medley::core::kMaxCombinerSlots)
      << "config() must report the clamped, effective slot count";
  EXPECT_EQ(s.config().combining.max_batch, medley::core::kMaxCombinedBatch)
      << "config() must report the clamped, effective batch cap";

  // max_batch can also never exceed the slot count.
  StoreConfig tiny = comb_cfg();
  tiny.combining.slots = 4;
  tiny.combining.max_batch = 32;
  TxManager mgr2;
  Store t(&mgr2, tiny);
  EXPECT_EQ(t.config().combining.max_batch, 4u);

  // Shards inherit the validated copy.
  Sharded sh(2, cfg);
  EXPECT_EQ(sh.shard(0).config().combining.slots,
            medley::core::kMaxCombinerSlots);
  EXPECT_EQ(sh.shard(0).config().combining.max_batch,
            medley::core::kMaxCombinedBatch);

  // Combining off: the knobs are inert, nothing throws.
  StoreConfig off;
  off.combining.slots = 0;
  TxManager mgr3;
  Store u(&mgr3, off);
  EXPECT_EQ(u.combined_batches(), 0u);
}

// ---- C1: semantics --------------------------------------------------------

TEST(Combining, SingleThreadSemanticsMatchOracle) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.metrics = true;
  cfg.metrics_sample_shift = 0;
  Store s(&mgr, cfg);
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(7);
  std::uint64_t mutations = 0;

  for (int i = 0; i < 600; i++) {
    const std::uint64_t k = rng.next_bounded(32);
    switch (rng.next_bounded(3)) {
      case 0: {
        const std::uint64_t v = rng.next_bounded(1u << 20);
        auto it = oracle.find(k);
        std::optional<std::uint64_t> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::uint64_t>(it->second);
        EXPECT_EQ(s.put(k, v), want);
        oracle[k] = v;
        mutations++;
        break;
      }
      case 1: {
        auto it = oracle.find(k);
        std::optional<std::uint64_t> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::uint64_t>(it->second);
        EXPECT_EQ(s.del(k), want);
        if (it != oracle.end()) oracle.erase(it);
        mutations++;
        break;
      }
      default: {
        auto got = s.read_modify_write(
            k, [](const std::optional<std::uint64_t>& c) {
              return std::optional<std::uint64_t>(c.value_or(0) + 1);
            });
        auto it = oracle.find(k);
        const std::uint64_t want =
            (it == oracle.end() ? 0 : it->second) + 1;
        EXPECT_EQ(got, std::optional<std::uint64_t>(want));
        oracle[k] = want;
        mutations++;
        break;
      }
    }
  }
  // Single-threaded, every mutation self-combined as a batch of one —
  // still N logical ops, each billing exactly one commit (no reads ran
  // yet, so the commit count is exactly the mutation count).
  EXPECT_EQ(s.combined_ops(), mutations);
  EXPECT_EQ(s.combined_batches(), mutations);
  EXPECT_EQ(s.stats().commits, mutations);
  for (const auto& [k, v] : oracle) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(v));
  }
  EXPECT_TRUE(mutually_consistent(s));
  // C4: the batch-size histogram is part of the exposition.
  const std::string prom = s.dump_metrics();
  EXPECT_NE(prom.find("medley_store_combined_batch"), std::string::npos);
  EXPECT_NE(prom.find("medley_store_combined_ops_total"), std::string::npos);
}

TEST(Combining, RmwCallbackExceptionFailsOnlyItsOp) {
  TxManager mgr;
  Store s(&mgr, comb_cfg(64));
  s.put(5, 50);

  // Pipeline a put into the same (future) batch, then throw from a sync
  // rmw: the rmw's op fails, the batch (and the piggybacked put) commits.
  auto fut = s.async_put(6, 60);
  EXPECT_THROW(s.read_modify_write(
                   5,
                   [](const std::optional<std::uint64_t>&)
                       -> std::optional<std::uint64_t> {
                     throw std::runtime_error("user callback");
                   }),
               std::runtime_error);
  EXPECT_FALSE(fut.get().has_value());  // 6 was absent
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(50)) << "failed rmw leaked";
  EXPECT_EQ(s.get(6), std::optional<std::uint64_t>(60));
  EXPECT_TRUE(mutually_consistent(s));
}

// ---- C1/C3: batch atomicity under a pinned conflict -----------------------

TEST(Combining, ConflictMidBatchRetriesWholeBatch) {
  // Thread A's combined rmw parks inside its user callback (handshake)
  // while thread B commits a conflicting write through a second manager
  // of the same domain (bypassing the combiner). A's batch transaction
  // must abort and re-run AS A WHOLE, and the retried rmw must see B's
  // value — the combined op linearizes after the conflicting commit.
  auto domain = std::make_shared<medley::core::TxDomain>();
  TxManager mgr(domain);
  TxManager mgr2(domain);
  Store s(&mgr, comb_cfg(64));
  constexpr std::uint64_t kKey = 3;
  std::atomic<bool> in_callback{false};
  std::atomic<bool> b_committed{false};

  std::thread b([&] {
    while (!in_callback.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    medley::execute_tx(mgr2, [&] { s.put(kKey, 100); });
    b_committed.store(true, std::memory_order_release);
  });

  auto got = s.read_modify_write(
      kKey, [&](const std::optional<std::uint64_t>& cur) {
        in_callback.store(true, std::memory_order_release);
        while (!b_committed.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return std::optional<std::uint64_t>(cur.value_or(0) + 1);
      });
  b.join();

  // First attempt read kKey as absent and lost to B; the retry read 100.
  EXPECT_EQ(got, std::optional<std::uint64_t>(101));
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(101));
  const auto st = s.stats();
  EXPECT_GE(st.conflict_aborts + st.validation_aborts, 1u)
      << "the batch transaction never observed the conflict";
  // Feed order == serialization order: B's 100 strictly before A's 101.
  auto feed = s.poll_feed(16);
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed[0].val, 100u);
  EXPECT_EQ(feed[1].val, 101u);
  EXPECT_TRUE(mutually_consistent(s));
}

TEST(Combining, BoundedPolicyAbortsWholeBatchAllOrNothing) {
  // Same handshake, but the store's policy grants ONE attempt: the batch
  // — a parked rmw plus two piggybacked async puts — terminally aborts,
  // and ALL THREE ops must fail together with nothing visible.
  auto domain = std::make_shared<medley::core::TxDomain>();
  TxManager mgr(domain);
  TxManager mgr2(domain);
  StoreConfig cfg = comb_cfg(64);
  cfg.tx_policy = TxPolicy::bounded(1);
  Store s(&mgr, cfg);
  constexpr std::uint64_t kKey = 3;
  std::atomic<bool> in_callback{false};
  std::atomic<bool> b_committed{false};

  std::thread b([&] {
    while (!in_callback.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    medley::execute_tx(mgr2, [&] { s.put(kKey, 100); });
    b_committed.store(true, std::memory_order_release);
  });

  auto f1 = s.async_put(70, 7);
  auto f2 = s.async_put(71, 7);
  EXPECT_THROW(
      s.read_modify_write(kKey,
                          [&](const std::optional<std::uint64_t>& cur) {
                            in_callback.store(true,
                                              std::memory_order_release);
                            while (!b_committed.load(
                                std::memory_order_acquire)) {
                              std::this_thread::yield();
                            }
                            return std::optional<std::uint64_t>(
                                cur.value_or(0) + 1);
                          }),
      TransactionAborted);
  b.join();
  EXPECT_THROW(f1.get(), TransactionAborted);
  EXPECT_THROW(f2.get(), TransactionAborted);

  // All-or-nothing: only B's write exists.
  EXPECT_EQ(s.get(kKey), std::optional<std::uint64_t>(100));
  EXPECT_FALSE(s.get(70).has_value());
  EXPECT_FALSE(s.get(71).has_value());
  auto feed = s.poll_feed(16);
  ASSERT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed[0].val, 100u);
  EXPECT_TRUE(mutually_consistent(s));
}

// ---- C2: handoff ----------------------------------------------------------

TEST(Combining, SchedulePinnedHandoffDeliversResultWithoutLock) {
  // t0 publishes asynchronously (no lock taken); t1's synchronous put
  // becomes the combiner and drains BOTH ops as one batch; t0 then
  // harvests a result it never computed — the handoff. Deterministic via
  // the schedule driver (each step is self-sufficient: t1's sync put
  // combines its own batch, so no step blocks on another thread's step).
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.trace_capacity = 256;
  Store s(&mgr, cfg);
  Store::AsyncResult fut;
  std::optional<std::uint64_t> harvested;

  h::ScheduleDriver d;
  d.add_thread({
      [&] { fut = s.async_put(1, 10); },
      [&] { harvested = fut.get().value_or(99); },
  });
  d.add_thread({
      [&] { s.put(2, 20); },
  });
  d.run({0, 1, 0});

  EXPECT_EQ(harvested, std::optional<std::uint64_t>(99))
      << "async fresh insert must report no previous value";
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(s.combined_batches(), 1u) << "both ops must share one batch";
  EXPECT_EQ(s.combined_ops(), 2u);

  // Trace evidence: one combine_batch of 2, and a combiner_handoff for
  // t0's harvested op.
  bool saw_batch2 = false, saw_handoff = false;
  for (const auto& e : s.trace_ring()->dump()) {
    if (e.kind == medley::obs::TraceEvent::kCombineBatch && e.aux == 2) {
      saw_batch2 = true;
    }
    if (e.kind == medley::obs::TraceEvent::kCombinerHandoff) {
      saw_handoff = true;
    }
  }
  EXPECT_TRUE(saw_batch2);
  EXPECT_TRUE(saw_handoff);
}

TEST(Combining, HandoffUnderChurnBothPolicies) {
  for (const auto handoff :
       {CombinerHandoff::kSticky, CombinerHandoff::kRotate}) {
    TxManager mgr;
    StoreConfig cfg = comb_cfg(128, handoff);
    cfg.trace_capacity = 1024;
    Store s(&mgr, cfg);
    constexpr int kThreads = 8;
    constexpr int kOps = 400;
    constexpr std::uint64_t kKeys = 16;  // hot: force real batching

    h::run_seeded(kThreads, 1234 + static_cast<int>(handoff),
                  [&](int t, medley::util::Xoshiro256& rng) {
                    (void)t;
                    for (int i = 0; i < kOps; i++) {
                      const std::uint64_t k = rng.next_bounded(kKeys);
                      if (rng.next_bounded(2) == 0) {
                        s.put(k, rng.next_bounded(1u << 16));
                      } else {
                        s.read_modify_write(
                            k, [](const std::optional<std::uint64_t>& c) {
                              return std::optional<std::uint64_t>(
                                  c.value_or(0) + 1);
                            });
                      }
                    }
                  });

    // Every mutation went through the combiner and completed: exactly
    // N logical commits (C4), and since batches can hold several ops,
    // at most as many batches as ops.
    const std::uint64_t total = kThreads * kOps;
    EXPECT_EQ(s.combined_ops(), total);
    EXPECT_LE(s.combined_batches(), total);
    EXPECT_GT(s.combined_batches(), 0u);
    EXPECT_EQ(s.stats().commits, total);
    EXPECT_EQ(s.stats().feed_pushed, total);
    bool saw_batch = false;
    for (const auto& e : s.trace_ring()->dump()) {
      if (e.kind == medley::obs::TraceEvent::kCombineBatch) saw_batch = true;
    }
    EXPECT_TRUE(saw_batch);
    EXPECT_TRUE(mutually_consistent(s));
  }
}

// ---- C3: the store invariants at 8 threads with combining on --------------

TEST(Combining, MixedWorkloadMutualConsistency8Threads) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(128);
  cfg.metrics = true;
  Store s(&mgr, cfg);
  constexpr std::uint64_t kKeys = 48;
  constexpr int kOps = 700;
  std::atomic<bool> torn{false};
  std::vector<medley::store::FeedEntry<std::uint64_t, std::uint64_t>> log;

  h::run_seeded(8, 4242, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 5) {  // mutators, combined sync + async pipelining
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        switch (rng.next_bounded(4)) {
          case 0:
            s.put(k, rng.next_bounded(1u << 20));
            break;
          case 1:
            s.del(k);
            break;
          case 2:
            s.read_modify_write(k, [](const std::optional<std::uint64_t>& c) {
              return std::optional<std::uint64_t>(c.value_or(0) + 1);
            });
            break;
          default: {  // submit a pipelined pair, then harvest both
            auto f1 = s.async_put(k, k * 3);
            auto f2 = s.async_put((k + 7) % kKeys, k * 3);
            f1.get();
            f2.get();
            i++;  // two logical ops
            break;
          }
        }
      }
    } else if (t == 7) {  // feed consumer
      for (int i = 0; i < kOps; i++) {
        auto batch = s.poll_feed(8);
        log.insert(log.end(), batch.begin(), batch.end());
      }
    } else {  // readers: committed cross-index snapshots (I3)
      for (int i = 0; i < kOps; i++) {
        const auto k = rng.next_bounded(kKeys);
        std::optional<std::uint64_t> p;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> r;
        medley::execute_tx(mgr, [&] {
          p = s.get(k);
          r = s.range(k, k);
        });
        const bool in_secondary = !r.empty();
        if (p.has_value() != in_secondary) torn.store(true);
        if (p && in_secondary && *p != r[0].second) torn.store(true);
        auto window = s.scan(k, 8);
        for (std::size_t j = 1; j < window.size(); j++) {
          if (!(window[j - 1].first < window[j].first)) torn.store(true);
        }
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed snapshot saw torn indexes";
  EXPECT_TRUE(mutually_consistent(s));

  // I2 at scale: polled prefix + final drain replays to the primary.
  for (;;) {
    auto batch = s.poll_feed(64);
    if (batch.empty()) break;
    log.insert(log.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(s.feed_depth(), 0u);
  std::map<std::uint64_t, std::uint64_t> replayed;
  medley::store::replay_feed(log, replayed);
  std::map<std::uint64_t, std::uint64_t> primary_now;
  for (const auto& [k, v] : s.range(0, ~0ULL)) primary_now[k] = v;
  EXPECT_EQ(replayed, primary_now);

  const auto st = s.stats();
  EXPECT_GT(st.commits, 0u);
  EXPECT_EQ(st.feed_pushed, log.size());
  EXPECT_EQ(st.feed_polled, log.size());
  EXPECT_GT(s.combined_ops(), 0u);
}

// ---- C4: billing exactness ------------------------------------------------

TEST(Combining, StatsBillNCombinedOpsAsNLogicalOps) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(256);
  cfg.metrics = true;
  cfg.metrics_sample_shift = 0;
  Store s(&mgr, cfg);
  constexpr int kThreads = 4;
  constexpr int kOps = 500;

  h::run_seeded(kThreads, 99, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < kOps; i++) {
      s.put(static_cast<std::uint64_t>(t) * kOps + i, rng.next());
    }
  });

  constexpr std::uint64_t total = kThreads * kOps;
  const auto st = s.stats();
  EXPECT_EQ(st.commits, total) << "each combined op bills exactly 1 commit";
  EXPECT_EQ(st.feed_pushed, total);
  EXPECT_EQ(st.key_count(), total);
  EXPECT_EQ(s.combined_ops(), total)
      << "every top-level mutation routes through the combiner";
  EXPECT_LE(s.combined_batches(), s.combined_ops());

  // Registry view agrees: ops_total{op="put"} == N, combined_ops_total
  // == N (batches themselves never inflate the logical op count).
  const std::string json = s.dump_metrics_json();
  EXPECT_NE(json.find("medley_store_combined_ops_total"), std::string::npos);
  const std::string prom = s.dump_metrics();
  EXPECT_NE(
      prom.find("medley_store_ops_total{op=\"put\"} " + std::to_string(total)),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("medley_store_combined_ops_total " +
                      std::to_string(total)),
            std::string::npos)
      << prom;
}

// ---- C6: async futures ----------------------------------------------------

TEST(Combining, EmptyFutureIsInvalid) {
  medley::TxFuture<int> empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.get(), std::logic_error);
}

TEST(Combining, AsyncSlotExhaustionFallsBackToEager) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.combining.slots = 2;  // max_batch clamps to 2 as well
  Store s(&mgr, cfg);
  ASSERT_EQ(s.config().combining.max_batch, 2u);

  // Two futures park both slots; the third submission must execute
  // eagerly (already-resolved future) instead of deadlocking.
  auto f1 = s.async_put(1, 10);
  auto f2 = s.async_put(2, 20);
  auto f3 = s.async_put(3, 30);
  EXPECT_TRUE(f3.ready());
  EXPECT_EQ(s.get(3), std::optional<std::uint64_t>(30))
      << "slot-exhausted submission executes eagerly";

  // Harvesting drives the parked batch (a lone thread must be able to
  // complete its own pipeline).
  EXPECT_FALSE(f1.get().has_value());
  EXPECT_FALSE(f2.get().has_value());
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(s.stats().commits, 6u) << "3 mutations + the 3 reads above";
  EXPECT_TRUE(mutually_consistent(s));
}

TEST(Combining, FutureResolutionInsideTransactionThrows) {
  TxManager mgr;
  Store s(&mgr, comb_cfg(64));
  auto fut = s.async_put(1, 10);
  mgr.txBegin();
  EXPECT_THROW(fut.get(), std::logic_error)
      << "resolving would nest a batch transaction into the ambient one";
  try {
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(fut.get().has_value());  // fine outside
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
}

TEST(Combining, AbandonInsideTransactionLeaksSlotButIsCounted) {
#ifndef NDEBUG
  GTEST_SKIP() << "the misuse trips a debug assert by design; the "
                  "counter path is Release-only";
#else
  TxManager mgr;
  Store s(&mgr, comb_cfg(64));
  EXPECT_EQ(s.combiner_slots_leaked(), 0u);
  {
    auto fut = s.async_put(1, 10);  // publishes a slot (outside any tx)
    mgr.txBegin();
    // Destroying the future inside the open transaction cannot help the
    // combiner (helping would nest the batch transaction), so its still-
    // pending slot is parked forever — the leak this counter surfaces.
    { auto doomed = std::move(fut); }
    EXPECT_EQ(s.combiner_slots_leaked(), 1u);
    try {
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
  }
  // The OP is not lost — the next combine pass drains every published
  // slot, parked ones included — only the slot's reusability is. Its
  // commit goes unbilled (nobody consumes the result), which is why the
  // recovery story is "restart the store", not an online reclaim.
  auto f2 = s.async_put(2, 20);
  EXPECT_FALSE(f2.get().has_value());
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10))
      << "a later combine should still execute the parked op";
  EXPECT_EQ(s.get(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(s.combiner_slots_leaked(), 1u) << "counted once, not per pass";
#endif
}

// ---- moved-from-request regressions (string K/V) --------------------------
// uint64_t K/V cannot catch a moved-from request (trivial types stay
// bitwise-intact after std::move); std::string goes empty, so these tests
// fail loudly if any publish/fallback path executes a request it already
// moved from (try_publish's contract: moved from ONLY on success).

using StrStore = MedleyStore<std::string, std::string>;

TEST(Combining, StringKVSlotExhaustionExecutesCallersRequest) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.combining.slots = 2;
  StrStore s(&mgr, cfg);

  auto f1 = s.async_put("alpha", "first");
  auto f2 = s.async_put("beta", "second");
  // Both slots parked: this submission takes the eager fallback, which
  // must see the ORIGINAL request (a failed try_publish may not move it).
  auto f3 = s.async_put("gamma", "third");
  EXPECT_TRUE(f3.ready());
  EXPECT_FALSE(f3.get().has_value());
  EXPECT_EQ(s.get("gamma"), std::optional<std::string>("third"))
      << "slot-exhausted fallback executed a moved-from request";
  EXPECT_FALSE(s.get("").has_value())
      << "a moved-from (empty) key was committed";

  EXPECT_FALSE(f1.get().has_value());
  EXPECT_FALSE(f2.get().has_value());
  EXPECT_EQ(s.get("alpha"), std::optional<std::string>("first"));
  EXPECT_EQ(s.get("beta"), std::optional<std::string>("second"));
}

TEST(Combining, StringKVPublishRetryPreservesRequests) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(128);
  cfg.combining.slots = 1;  // every publish contends for the single slot
  StrStore s(&mgr, cfg);
  ASSERT_EQ(s.config().combining.max_batch, 1u);
  constexpr int kThreads = 4;
  constexpr int kOps = 200;

  h::run_seeded(kThreads, 31, [&](int t, medley::util::Xoshiro256& rng) {
    (void)rng;
    for (int i = 0; i < kOps; i++) {
      const std::string k = "k" + std::to_string(t) + "_" + std::to_string(i);
      if (i % 8 == 7) {
        s.del(k);  // absent delete still routes through the combiner
      } else {
        s.put(k, "v" + std::to_string(t * kOps + i));
      }
    }
  });

  // Every request that retried publish() under slot contention must have
  // arrived intact: each key maps to exactly its own value, and no empty
  // (moved-from) key was ever committed.
  EXPECT_FALSE(s.get("").has_value());
  std::uint64_t live = 0;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kOps; i++) {
      const std::string k = "k" + std::to_string(t) + "_" + std::to_string(i);
      auto v = s.get(k);
      if (i % 8 == 7) {
        EXPECT_FALSE(v.has_value()) << k;
      } else {
        ASSERT_TRUE(v.has_value()) << k;
        EXPECT_EQ(*v, "v" + std::to_string(t * kOps + i));
        live++;
      }
    }
  }
  EXPECT_EQ(s.stats().key_count(), live);
  EXPECT_EQ(s.combined_ops(), static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(Combining, AbandonedFutureReclaimsSlotAndBillsCommit) {
  TxManager mgr;
  StoreConfig cfg = comb_cfg(64);
  cfg.combining.slots = 2;
  StrStore s(&mgr, cfg);

  {
    auto f1 = s.async_put("a", "1");
    auto f2 = s.async_put("b", "2");
    // Dropped without get(): the destructors drive both ops to
    // completion, bill them, and free the publication slots.
  }
  EXPECT_EQ(s.get("a"), std::optional<std::string>("1"))
      << "an abandoned future's op must still commit";
  EXPECT_EQ(s.get("b"), std::optional<std::string>("2"));
  EXPECT_EQ(s.combined_ops(), 2u);
  EXPECT_EQ(s.stats().commits, 4u) << "2 abandoned puts + 2 reads";

  // Both slots are free again: the next pipelined pair publishes into the
  // combiner (combined_ops keeps counting) instead of falling back eager.
  auto f3 = s.async_put("c", "3");
  auto f4 = s.async_put("d", "4");
  EXPECT_EQ(f3.get(), std::nullopt);
  EXPECT_EQ(f4.get(), std::nullopt);
  EXPECT_EQ(s.combined_ops(), 4u)
      << "slots parked by abandoned futures were not reclaimed";
  EXPECT_EQ(s.get("c"), std::optional<std::string>("3"));
  EXPECT_EQ(s.get("d"), std::optional<std::string>("4"));
}

// ---- sharded stores -------------------------------------------------------

TEST(Combining, ShardedPointOpsCombinePerShardCrossShardBypasses) {
  StoreConfig cfg = comb_cfg(256);
  Sharded s(4, cfg);
  constexpr int kThreads = 4;
  constexpr int kOps = 300;

  h::run_seeded(kThreads, 77, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < kOps; i++) {
      const std::uint64_t k = rng.next_bounded(64);
      if (rng.next_bounded(2) == 0) {
        s.put(k, k + 1);
      } else {
        auto f = s.async_put(k, k + 2);
        f.get();
      }
    }
  });
  // Every point mutation combined on its home shard.
  EXPECT_EQ(s.combined_ops(),
            static_cast<std::uint64_t>(kThreads) * kOps);

  // Cross-shard multi_put bypasses the combiners (it must stay ONE atomic
  // domain transaction) yet remains all-or-nothing.
  const std::uint64_t before = s.combined_ops();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  for (std::uint64_t k = 100; k < 116; k++) batch.emplace_back(k, k * 10);
  s.multi_put(batch);
  EXPECT_EQ(s.combined_ops(), before)
      << "cross-shard transactions must not route through the combiner";
  for (std::uint64_t k = 100; k < 116; k++) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(k * 10));
  }
}

TEST(Combining, RangeShardedCombinedScanConsistency) {
  using RStore = RangeShardedMedleyStore<std::uint64_t, std::uint64_t>;
  StoreConfig cfg = comb_cfg(256);
  RStore s(RStore::Partitioner::uniform(0, 4096, 4), cfg);

  h::run_seeded(4, 5150, [&](int t, medley::util::Xoshiro256& rng) {
    (void)t;
    for (int i = 0; i < 300; i++) {
      s.put(rng.next_bounded(4096), rng.next());
    }
  });
  EXPECT_EQ(s.combined_ops(), 4u * 300u);

  // Ordered reads over the combined writes: sorted, deduplicated, and
  // primary-consistent across shard boundaries.
  auto all = s.range(0, 4096);
  for (std::size_t i = 1; i < all.size(); i++) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
  for (const auto& [k, v] : all) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(v));
  }
}
