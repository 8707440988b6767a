// Fraser-skiplist-specific behaviour: upper-level linking/cleanup,
// tower demotion on remove, behaviour under many levels, the in-place put
// (its conflicts with ranges and removes, boxed values and their
// reclamation), plus a longer-running concurrent oracle check.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
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
using SL = medley::ds::FraserSkiplist<std::uint64_t, std::uint64_t>;

TEST(Skiplist, UpperLevelsEventuallyLinked) {
  // After enough sequential inserts, the skiplist must have populated
  // levels above 0 (probability of all-level-1 towers is ~2^-N).
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 1; k <= 512; k++) ASSERT_TRUE(s.insert(k, k));
  EXPECT_TRUE(s.invariants_hold_slow());
  // Indirect evidence of multi-level structure: searching is correct for
  // all keys (exercises descent through whatever towers exist).
  for (std::uint64_t k = 1; k <= 512; k++) ASSERT_TRUE(s.contains(k));
}

TEST(Skiplist, RemoveEverythingLeavesCleanList) {
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 1; k <= 256; k++) s.insert(k, k);
  for (std::uint64_t k = 1; k <= 256; k++) {
    ASSERT_TRUE(s.remove(k).has_value());
  }
  EXPECT_EQ(s.size_slow(), 0u);
  EXPECT_TRUE(s.invariants_hold_slow());
  // Reuse after full drain.
  EXPECT_TRUE(s.insert(5, 5));
  EXPECT_TRUE(s.contains(5));
}

TEST(Skiplist, AlternatingInsertRemoveKeepsTowersCoherent) {
  TxManager mgr;
  SL s(&mgr);
  for (int round = 0; round < 20; round++) {
    for (std::uint64_t k = 1; k <= 64; k++) ASSERT_TRUE(s.insert(k, k));
    EXPECT_TRUE(s.invariants_hold_slow());
    for (std::uint64_t k = 1; k <= 64; k++) {
      ASSERT_TRUE(s.remove(k).has_value());
    }
    EXPECT_TRUE(s.invariants_hold_slow());
  }
  EXPECT_EQ(s.size_slow(), 0u);
}

TEST(Skiplist, TxAbortedRemoveLeavesKeyFindable) {
  // An aborted remove may leave upper levels of the victim marked
  // (pre-linearization demotion is benign); the key must remain a member
  // and subsequent operations must behave normally.
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 1; k <= 32; k++) s.insert(k, k);
  for (std::uint64_t k = 1; k <= 32; k++) {
    try {
      mgr.txBegin();
      ASSERT_TRUE(s.remove(k).has_value());
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
  }
  for (std::uint64_t k = 1; k <= 32; k++) {
    EXPECT_TRUE(s.contains(k)) << k;
  }
  // The demoted nodes must still be removable for real.
  for (std::uint64_t k = 1; k <= 32; k++) {
    EXPECT_TRUE(s.remove(k).has_value()) << k;
  }
  EXPECT_EQ(s.size_slow(), 0u);
}

TEST(Skiplist, LargeTransactionManyOps) {
  TxManager mgr;
  SL s(&mgr);
  mgr.txBegin();
  for (std::uint64_t k = 1; k <= 100; k++) ASSERT_TRUE(s.insert(k, k));
  for (std::uint64_t k = 1; k <= 50; k++) {
    ASSERT_TRUE(s.remove(k).has_value());
  }
  mgr.txEnd();
  EXPECT_EQ(s.size_slow(), 50u);
  for (std::uint64_t k = 51; k <= 100; k++) EXPECT_TRUE(s.contains(k));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(Skiplist, ConcurrentOracleAgreement) {
  // Concurrent phase (outcome unknown) followed by a sequential
  // reconciliation: whatever survived must be internally consistent and
  // respond correctly to a full sweep of gets.
  TxManager mgr;
  SL s(&mgr);
  constexpr std::uint64_t kKeys = 128;
  medley::test::run_threads(6, [&](int t) {
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 5 + 1);
    for (int i = 0; i < 2500; i++) {
      auto k = rng.next_bounded(kKeys) + 1;
      switch (rng.next_bounded(3)) {
        case 0: s.insert(k, k * 2); break;
        case 1: s.remove(k); break;
        default: {
          auto v = s.get(k);
          if (v) {
            ASSERT_EQ(*v, k * 2);  // values always key*2
          }
          break;
        }
      }
    }
  });
  EXPECT_TRUE(s.invariants_hold_slow());
  auto keys = s.keys_slow();
  for (auto k : keys) {
    ASSERT_EQ(s.get(k), std::optional<std::uint64_t>(k * 2));
  }
}

TEST(Skiplist, RangeAndScanSequentialSemantics) {
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 10; k <= 100; k += 10) s.insert(k, k * 2);
  // range is inclusive on both bounds, ascending.
  auto r = s.range(20, 50);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.front(), (std::pair<std::uint64_t, std::uint64_t>{20, 40}));
  EXPECT_EQ(r.back(), (std::pair<std::uint64_t, std::uint64_t>{50, 100}));
  // Empty window and beyond-the-end window.
  EXPECT_TRUE(s.range(41, 49).empty());
  EXPECT_TRUE(s.range(101, 200).empty());
  // scan starts at the first key >= lo and honours the limit.
  auto sc = s.scan(35, 3);
  ASSERT_EQ(sc.size(), 3u);
  EXPECT_EQ(sc[0].first, 40u);
  EXPECT_EQ(sc[2].first, 60u);
  EXPECT_EQ(s.scan(95, 10).size(), 1u);  // only 100 remains
}

TEST(Skiplist, RangeInsideTxSeesOwnSpeculativeWrites) {
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 1; k <= 8; k++) s.insert(k, k);
  medley::execute_tx(mgr, [&] {
    s.remove(4);
    s.insert(100, 100);
    auto r = s.range(1, 200);
    ASSERT_EQ(r.size(), 8u);  // 1,2,3,5,6,7,8,100
    for (const auto& [k, v] : r) {
      EXPECT_NE(k, 4u);
      EXPECT_EQ(k, v);
    }
    EXPECT_EQ(r.back().first, 100u);
  });
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.contains(100));
}

TEST(Skiplist, MgrStatsSeeTransactionOutcomes) {
  TxManager mgr;
  SL s(&mgr);
  mgr.reset_stats();
  medley::execute_tx(mgr, [&] { s.insert(1, 1); });
  try {
    mgr.txBegin();
    s.insert(2, 2);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  auto st = mgr.stats();
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(st.user_aborts, 1u);
}

// ---------------------------------------------------------------------
// Harness-driven oracle checks (tests/harness/).

namespace h = medley::test::harness;

TEST(SkiplistOracle, DeterministicInterleavingMatchesStdMap) {
  TxManager mgr;
  SL s(&mgr);
  h::Recorder rec;
  h::RecordedMap<SL> rm(&s, &rec);
  h::ScheduleDriver d;
  for (int t = 0; t < 3; t++) {
    std::vector<h::ScheduleDriver::Step> steps;
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 21);
    for (int i = 0; i < 60; i++) {
      const auto k = rng.next_bounded(10);
      const auto v = rng.next();
      switch (rng.next_bounded(5)) {
        case 0: steps.push_back([&rm, t, k, v] { rm.insert(t, k, v); }); break;
        case 1: steps.push_back([&rm, t, k] { rm.remove(t, k); }); break;
        case 2: steps.push_back([&rm, t, k] { rm.contains(t, k); }); break;
        case 3: steps.push_back([&rm, t, k, v] { rm.put(t, k, v); }); break;
        default: steps.push_back([&rm, t, k] { rm.get(t, k); }); break;
      }
    }
    d.add_thread(std::move(steps));
  }
  d.run(d.shuffled(99));
  EXPECT_TRUE(h::check_sequential_map(rec.history()));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(SkiplistOracle, RangeAgreesWithMapOracleUnderPinnedInterleavings) {
  // Serialized-but-interleaved mixed workload with range queries: steps
  // run one at a time under the ScheduleDriver (real threads, exact
  // interleaving), so a std::map oracle can be advanced in lock-step and
  // every range result compared exactly.
  TxManager mgr;
  SL s(&mgr);
  std::map<std::uint64_t, std::uint64_t> oracle;
  h::ScheduleDriver d;
  for (int t = 0; t < 3; t++) {
    std::vector<h::ScheduleDriver::Step> steps;
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 77);
    for (int i = 0; i < 80; i++) {
      const auto k = rng.next_bounded(24);
      const auto v = rng.next();
      switch (rng.next_bounded(5)) {
        case 0:
          steps.push_back([&s, &oracle, k, v] {
            const bool ins = s.insert(k, v);
            ASSERT_EQ(ins, oracle.emplace(k, v).second);
          });
          break;
        case 3:
          steps.push_back([&s, &oracle, k, v] {
            auto got = s.put(k, v);
            auto it = oracle.find(k);
            ASSERT_EQ(got.has_value(), it != oracle.end());
            if (got) {
              ASSERT_EQ(*got, it->second);
            }
            oracle[k] = v;
          });
          break;
        case 1:
          steps.push_back([&s, &oracle, k] {
            auto got = s.remove(k);
            auto it = oracle.find(k);
            ASSERT_EQ(got.has_value(), it != oracle.end());
            if (got) {
              ASSERT_EQ(*got, it->second);
              oracle.erase(it);
            }
          });
          break;
        default:
          steps.push_back([&s, &oracle, k] {
            const auto hi = k + 8;
            auto got = s.range(k, hi);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
                oracle.lower_bound(k), oracle.upper_bound(hi));
            ASSERT_EQ(got, want);
          });
          break;
      }
    }
    d.add_thread(std::move(steps));
  }
  d.run(d.shuffled(1234));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(SkiplistOracle, CommittedRangeIsAtomicSnapshotUnderConcurrency) {
  // Mutators toggle key *pairs* (2k, 2k+1) atomically inside transactions;
  // committed transactional range scans must never observe half a pair,
  // and must always see keys in strictly ascending order.
  TxManager mgr;
  SL s(&mgr);
  constexpr std::uint64_t kPairs = 12;
  for (std::uint64_t p = 0; p < kPairs; p += 2) {  // half start present
    s.insert(2 * p, p);
    s.insert(2 * p + 1, p);
  }
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> snapshots{0};

  h::run_seeded(8, 2027, [&](int t, medley::util::Xoshiro256& rng) {
    if (t < 4) {  // mutators
      for (int i = 0; i < 500; i++) {
        const auto p = rng.next_bounded(kPairs);
        try {
          medley::execute_tx(mgr, [&] {
            if (s.remove(2 * p).has_value()) {
              s.remove(2 * p + 1);
            } else {
              s.insert(2 * p, p + 1000 + static_cast<std::uint64_t>(i));
              s.insert(2 * p + 1, p + 1000 + static_cast<std::uint64_t>(i));
            }
          });
        } catch (const TransactionAborted&) {
        }
      }
    } else {  // scanners
      for (int i = 0; i < 500; i++) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> snap;
        try {
          medley::execute_tx(mgr, [&] { snap = s.range(0, 2 * kPairs); });
        } catch (const TransactionAborted&) {
          continue;  // uncommitted attempts may legally be torn
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t j = 1; j < snap.size(); j++) {
          if (!(snap[j - 1].first < snap[j].first)) torn.store(true);
        }
        std::map<std::uint64_t, std::uint64_t> m(snap.begin(), snap.end());
        for (std::uint64_t p = 0; p < kPairs; p++) {
          auto a = m.find(2 * p), b = m.find(2 * p + 1);
          if ((a == m.end()) != (b == m.end())) torn.store(true);
          if (a != m.end() && b != m.end() && a->second != b->second) {
            torn.store(true);
          }
        }
      }
    }
  });

  EXPECT_FALSE(torn.load()) << "a committed range saw a torn pair";
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(SkiplistOracle, ConcurrentHistorySatisfiesSetInvariants) {
  TxManager mgr;
  SL s(&mgr);
  std::map<std::uint64_t, std::uint64_t> initial;
  for (std::uint64_t k = 0; k < 16; k += 2) {
    s.insert(k, k + 7000);
    initial[k] = k + 7000;
  }
  h::Recorder rec;
  h::RecordedMap<SL> rm(&s, &rec);
  h::run_seeded(6, 43, [&](int t, medley::util::Xoshiro256& rng) {
    for (int i = 0; i < 1200; i++) {
      const auto k = rng.next_bounded(32);
      const auto v = (static_cast<std::uint64_t>(t) << 32) |
                     static_cast<std::uint64_t>(i);
      switch (rng.next_bounded(4)) {
        case 0: rm.insert(t, k, v); break;
        case 1: rm.remove(t, k); break;
        case 2: rm.put(t, k, v); break;
        default: rm.get(t, k); break;
      }
    }
  });
  EXPECT_TRUE(
      h::check_set_history(rec.history(), initial, h::observed_state(s)));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(Skiplist, ScanReadSetFootprintSinglePassExact) {
  // The read-set evidence of an uncontended scan over n live entries is
  // EXACTLY n+1 level-0 links (n entry links + the pred(lo) link): the
  // fast path must not pay any dedup bookkeeping, and nothing may be
  // registered twice. The restart path (which multiplies footprint by
  // passes without dedup and is exercised probabilistically under
  // contention) is covered at the mechanism level in
  // TxDomain.DedupReadRegistrationSkipsTrackedCells.
  TxManager mgr;
  SL s(&mgr);
  constexpr std::uint64_t kN = 200;
  for (std::uint64_t k = 1; k <= kN; k++) s.insert(k, k);

  mgr.txBegin();
  auto r1 = s.range(1, kN);
  EXPECT_EQ(r1.size(), kN);
  EXPECT_EQ(mgr.my_desc()->read_count(), static_cast<int>(kN) + 1);
  mgr.txEnd();

  mgr.txBegin();
  auto sc = s.scan(50, 40);
  EXPECT_EQ(sc.size(), 40u);
  EXPECT_EQ(mgr.my_desc()->read_count(), 41);
  mgr.txEnd();
}

// ---------------------------------------------------------------------
// put: insert-or-update; a present key is updated in place.

namespace {
using KV = std::pair<std::uint64_t, std::uint64_t>;
}  // namespace

TEST(SkiplistPut, InsertsOrUpdatesInPlace) {
  TxManager mgr;
  SL s(&mgr);
  for (std::uint64_t k = 1; k <= 64; k++) ASSERT_FALSE(s.put(k, k).has_value());
  for (std::uint64_t k = 1; k <= 64; k++) {
    ASSERT_EQ(s.put(k, k + 100), std::optional<std::uint64_t>(k));
  }
  EXPECT_EQ(s.size_slow(), 64u);
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(107));
  EXPECT_TRUE(s.invariants_hold_slow());

  // An update is exactly two critical CASes (the level-0 link re-write and
  // the value cell) and registers no read.
  mgr.txBegin();
  EXPECT_EQ(s.put(7, 200), std::optional<std::uint64_t>(107));
  EXPECT_EQ(mgr.my_desc()->write_count(), 2);
  EXPECT_EQ(mgr.my_desc()->read_count(), 0);
  // Own speculative value is visible to every reader of the transaction,
  // and a second put of the key updates the same two write entries.
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(200));
  EXPECT_EQ(s.put(7, 201), std::optional<std::uint64_t>(200));
  EXPECT_EQ(mgr.my_desc()->write_count(), 2);
  EXPECT_EQ(s.range(6, 8), (std::vector<KV>{{6, 106}, {7, 201}, {8, 108}}));
  mgr.txEnd();
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(201));

  // An aborted update leaves the old value.
  try {
    mgr.txBegin();
    s.put(7, 999);
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(201));
  EXPECT_EQ(s.remove(7), std::optional<std::uint64_t>(201));
  EXPECT_FALSE(s.put(7, 1).has_value());
  EXPECT_EQ(s.size_slow(), 64u);
  EXPECT_TRUE(s.invariants_hold_slow());
}

TEST(SkiplistPut, CommittedPutInvalidatesEarlierRangePinned) {
  // t0 opens a transaction and ranges over 2..6; t1 then commits a put;
  // t0 tries to commit. A put of a key inside the window re-writes a
  // registered level-0 link, so t0 must fail validation; a put of the key
  // just past the window touches no registered link and t0 commits. Both
  // the full-transaction and the read-only snapshot path.
  for (const bool ro : {false, true}) {
    for (const std::uint64_t put_key : {4u, 7u}) {
      SCOPED_TRACE(std::string(ro ? "read-only" : "full") + " put " +
                   std::to_string(put_key));
      TxManager mgr;
      SL s(&mgr);
      for (std::uint64_t k = 1; k <= 8; k++) s.insert(k, k);
      std::vector<KV> seen;
      std::optional<medley::AbortReason> abort_reason;
      h::ScheduleDriver d;
      d.add_thread({[&] {
                      ro ? mgr.txBeginRO() : mgr.txBegin();
                      seen = s.range(2, 6);
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
      EXPECT_EQ(seen,
                (std::vector<KV>{{2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}}));
      if (put_key == 4) {
        ASSERT_TRUE(abort_reason.has_value());
        EXPECT_EQ(*abort_reason, medley::AbortReason::Validation);
        EXPECT_EQ(s.range(4, 4), (std::vector<KV>{{4, 400}}));
      } else {
        EXPECT_FALSE(abort_reason.has_value());
        EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(700));
      }
    }
  }
}

TEST(SkiplistPut, RacingRemoveNeitherLosesNorResurrectsValues) {
  // Two putters write globally unique values, two removers remove; half
  // the calls are bare, half run in explicit transactions. Every value
  // written is consumed exactly once — returned as the old value of a
  // later put or by a remove — or is still in the map at the end. A lost
  // update would leave a value unaccounted for; a resurrected one would be
  // consumed twice.
  TxManager mgr;
  SL s(&mgr);
  constexpr std::uint64_t kKeys = 4;
  std::vector<KV> written[2], consumed[4];
  h::run_seeded(4, 77, [&](int t, medley::util::Xoshiro256& rng) {
    for (std::uint64_t i = 0; i < 3000; i++) {
      const std::uint64_t k = rng.next_bounded(kKeys);
      const bool in_tx = rng.next_bounded(2) == 0;
      std::optional<std::uint64_t> old;
      if (t < 2) {
        const std::uint64_t v = (static_cast<std::uint64_t>(t + 1) << 32) | i;
        if (in_tx) {
          medley::execute_tx(mgr, [&] { old = s.put(k, v); });
        } else {
          old = s.put(k, v);
        }
        written[t].push_back({k, v});
      } else if (in_tx) {
        medley::execute_tx(mgr, [&] { old = s.remove(k); });
      } else {
        old = s.remove(k);
      }
      if (old) consumed[t].push_back({k, *old});
    }
  });
  EXPECT_TRUE(s.invariants_hold_slow());
  std::vector<KV> want, got;
  for (const auto& w : written) want.insert(want.end(), w.begin(), w.end());
  for (const auto& c : consumed) got.insert(got.end(), c.begin(), c.end());
  for (std::uint64_t k = 0; k < kKeys; k++) {
    if (auto v = s.get(k)) got.push_back({k, *v});
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "a value was lost or consumed twice";
}

TEST(SkiplistPut, BarePutsRacingTransactionalScansSeeOnlySnapshots) {
  // One writer sweeps rounds g = 1, 2, ...: bare put(k, g) for k = 0..N-1
  // in ascending order. Any atomic snapshot then holds round g on a prefix
  // and g-1 on the rest: values never rise along the keys and span at
  // most 1. Committed scans, full and read-only, must see such a stair.
  TxManager mgr;
  SL s(&mgr);
  constexpr std::uint64_t kN = 32;
  for (std::uint64_t k = 0; k < kN; k++) s.insert(k, 0);
  std::atomic<bool> done{false}, torn{false};
  std::atomic<int> snapshots[2] = {0, 0};
  medley::test::run_threads(3, [&](int t) {
    if (t == 0) {
      for (std::uint64_t g = 1; g <= 300; g++) {
        for (std::uint64_t k = 0; k < kN; k++) s.put(k, g);
      }
      done.store(true);
      return;
    }
    medley::TxExecutor ex;
    while (!done.load() || snapshots[t - 1].load() == 0) {
      std::vector<KV> snap;
      auto body = [&] { snap = s.scan(0, kN); };
      if (!(t == 2 ? ex.execute_ro(mgr, body) : ex.execute(mgr, body))
               .committed()) {
        continue;
      }
      snapshots[t - 1].fetch_add(1);
      if (snap.size() != kN) torn.store(true);
      for (std::size_t j = 1; j < snap.size(); j++) {
        if (snap[j].second > snap[j - 1].second) torn.store(true);
      }
      if (snap.front().second > snap.back().second + 1) torn.store(true);
    }
  });
  EXPECT_FALSE(torn.load()) << "a committed scan saw a torn sweep";
  EXPECT_GT(snapshots[0].load(), 0);
  EXPECT_GT(snapshots[1].load(), 0);
  for (std::uint64_t k = 0; k < kN; k++) {
    EXPECT_EQ(s.get(k), std::optional<std::uint64_t>(300));
  }
  EXPECT_TRUE(s.invariants_hold_slow());
}

// Values that do not fit CASObj's word are held as a pointer to an
// immutable box; an update installs a new box and retires the old one.

TEST(SkiplistPut, StringValuesReplaceRoundTrip) {
  TxManager mgr;
  medley::ds::FraserSkiplist<std::string, std::string> s(&mgr);
  const std::string big(200, 'x');  // beyond any small-string buffer
  EXPECT_FALSE(s.put("alpha", "one").has_value());
  EXPECT_TRUE(s.insert("beta", big));
  EXPECT_EQ(s.put("alpha", "two"), std::optional<std::string>("one"));
  EXPECT_EQ(s.put("beta", "short"), std::optional<std::string>(big));
  EXPECT_EQ(s.get("alpha"), std::optional<std::string>("two"));
  medley::execute_tx(mgr, [&] {
    s.put("alpha", "three");
    s.put("alpha", big);
  });
  EXPECT_EQ(s.get("alpha"), std::optional<std::string>(big));
  try {
    mgr.txBegin();
    s.put("beta", "never");
    mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_EQ(s.range("a", "z"),
            (std::vector<std::pair<std::string, std::string>>{
                {"alpha", big}, {"beta", "short"}}));
  EXPECT_EQ(s.remove("alpha"), std::optional<std::string>(big));
  EXPECT_EQ(s.scan("", 10).size(), 1u);
}

namespace {
/// A boxed value type (not trivially copyable) that counts its instances.
struct Counted {
  explicit Counted(std::uint64_t x) : v(x) { live.fetch_add(1); }
  Counted(const Counted& o) : v(o.v) { live.fetch_add(1); }
  Counted& operator=(const Counted&) = default;
  ~Counted() { live.fetch_sub(1); }
  std::uint64_t v;
  static inline std::atomic<long> live{0};
};
}  // namespace

TEST(SkiplistPut, ReplacedBoxesAreReclaimed) {
  auto& ebr = medley::smr::EBR::instance();
  const long base = Counted::live.load();
  {
    TxManager mgr;
    medley::ds::FraserSkiplist<std::uint64_t, Counted> s(&mgr);
    constexpr std::uint64_t kKeys = 10;
    for (std::uint64_t r = 0; r < 50; r++) {
      for (std::uint64_t k = 0; k < kKeys; k++) s.put(k, Counted(r));
    }
    medley::execute_tx(mgr, [&] {  // a box replaced within its own tx
      s.put(0, Counted(100));
      s.put(0, Counted(101));
    });
    try {  // an aborted update's box
      mgr.txBegin();
      s.put(1, Counted(102));
      mgr.txAbort();
    } catch (const TransactionAborted&) {
    }
    EXPECT_EQ(s.get(0)->v, 101u);
    EXPECT_EQ(s.get(1)->v, 49u);
    ebr.drain();
    EXPECT_EQ(ebr.limbo_size(), 0u);
    EXPECT_EQ(Counted::live.load() - base, static_cast<long>(kKeys))
        << "one live box per key once the limbo drains";
    s.remove(3);
    ebr.drain();
    EXPECT_EQ(Counted::live.load() - base, static_cast<long>(kKeys) - 1);
  }
  EXPECT_EQ(Counted::live.load(), base);
}
