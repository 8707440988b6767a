// MCNS semantics through CASObj + TxManager: atomic multi-cell commit,
// abort rollback, helping/eager conflict resolution, read validation,
// speculation-interval tracking, descriptor reuse across serials.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/medley.hpp"
#include "test_support.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

using medley::AbortReason;
using medley::CASObj;
using medley::TransactionAborted;
using medley::TxManager;
using medley::core::CASCell;
using U64Obj = CASObj<std::uint64_t>;

namespace {

/// Begin a tx, run body, commit. Returns true on commit, false on abort.
bool try_tx(TxManager& mgr, const std::function<void()>& body) {
  try {
    mgr.txBegin();
    body();
    mgr.txEnd();
    return true;
  } catch (const TransactionAborted&) {
    return false;
  }
}

/// Commit the running tx. Returns true on commit, false on abort.
bool try_tx_end(TxManager& mgr) {
  try {
    mgr.txEnd();
    return true;
  } catch (const TransactionAborted&) {
    return false;
  }
}

}  // namespace

TEST(Mcns, TwoCellCommitIsAtomicAndVisible) {
  TxManager mgr;
  U64Obj a(1), b(2);
  ASSERT_TRUE(try_tx(mgr, [&] {
    EXPECT_TRUE(a.nbtcCAS(1, 10, true, true));
    EXPECT_TRUE(b.nbtcCAS(2, 20, true, true));
  }));
  EXPECT_EQ(a.load(), 10u);
  EXPECT_EQ(b.load(), 20u);
  // Descriptors uninstalled: counters even again.
  EXPECT_EQ(a.raw().hi % 2, 0u);
  EXPECT_EQ(b.raw().hi % 2, 0u);
}

TEST(Mcns, SpeculativeStateHoldsDescriptorUntilCommit) {
  TxManager mgr;
  U64Obj a(1);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, true, true));
  EXPECT_EQ(a.raw().hi % 2, 1u);  // installed: odd counter
  mgr.txEnd();
  EXPECT_EQ(a.raw().hi % 2, 0u);
  EXPECT_EQ(a.load(), 10u);
}

TEST(Mcns, UserAbortRollsBackAllWrites) {
  TxManager mgr;
  U64Obj a(1), b(2);
  EXPECT_THROW(
      {
        mgr.txBegin();
        a.nbtcCAS(1, 10, true, true);
        b.nbtcCAS(2, 20, true, true);
        mgr.txAbort();
      },
      TransactionAborted);
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(b.load(), 2u);
  EXPECT_EQ(a.raw().hi % 2, 0u);  // uninstalled
  EXPECT_EQ(mgr.stats().user_aborts, 1u);
}

TEST(Mcns, WriteThenReadSeesOwnSpeculativeValue) {
  TxManager mgr;
  U64Obj a(1);
  ASSERT_TRUE(try_tx(mgr, [&] {
    ASSERT_TRUE(a.nbtcCAS(1, 42, true, true));
    EXPECT_EQ(a.nbtcLoad(), 42u);  // read-own-write through the write set
  }));
  EXPECT_EQ(a.load(), 42u);
}

TEST(Mcns, WriteThenCasAgainUpdatesWriteSetInPlace) {
  TxManager mgr;
  U64Obj a(1);
  ASSERT_TRUE(try_tx(mgr, [&] {
    ASSERT_TRUE(a.nbtcCAS(1, 2, true, true));
    EXPECT_FALSE(a.nbtcCAS(1, 3, true, true));  // expected must be spec val
    EXPECT_TRUE(a.nbtcCAS(2, 3, true, true));
  }));
  EXPECT_EQ(a.load(), 3u);
}

TEST(Mcns, ReadThenWriteSameCellCommits) {
  // The Fig. 3 pattern: get(a1) then put(a1). The read entry must validate
  // against our own installed descriptor (DESIGN.md §5).
  TxManager mgr;
  medley::test::Harness h(&mgr);
  U64Obj a(7);
  ASSERT_TRUE(try_tx(mgr, [&] {
    auto v = a.nbtcLoad();
    h.addToReadSet(&a, v);
    ASSERT_TRUE(a.nbtcCAS(v, v + 1, true, true));
  }));
  EXPECT_EQ(a.load(), 8u);
}

TEST(Mcns, StaleReadFailsValidationAtCommit) {
  TxManager mgr;
  medley::test::Harness h(&mgr);
  U64Obj a(7);
  bool committed = try_tx(mgr, [&] {
    auto v = a.nbtcLoad();
    h.addToReadSet(&a, v);
    // A peer commits a change to `a` before we reach txEnd.
    std::thread([&] { ASSERT_TRUE(a.CAS(7, 99)); }).join();
  });
  EXPECT_FALSE(committed);
  EXPECT_EQ(mgr.stats().validation_aborts, 1u);
  EXPECT_EQ(a.load(), 99u);
}

TEST(Mcns, UnchangedReadValidates) {
  TxManager mgr;
  medley::test::Harness h(&mgr);
  U64Obj a(7);
  EXPECT_TRUE(try_tx(mgr, [&] {
    auto v = a.nbtcLoad();
    h.addToReadSet(&a, v);
  }));
  EXPECT_EQ(mgr.stats().commits, 1u);
}

TEST(Mcns, AbaOnValueIsCaughtByCounter) {
  // Value changes away and back between our read and commit: the value
  // matches but the counter does not — validation must fail.
  TxManager mgr;
  medley::test::Harness h(&mgr);
  U64Obj a(7);
  bool committed = try_tx(mgr, [&] {
    auto v = a.nbtcLoad();
    h.addToReadSet(&a, v);
    std::thread([&] {
      ASSERT_TRUE(a.CAS(7, 99));
      ASSERT_TRUE(a.CAS(99, 7));  // back to the same value
    }).join();
  });
  EXPECT_FALSE(committed);
}

TEST(Mcns, PlainLoadByPeerForcesAbortOfInPrepTx) {
  // Eager contention management: a peer that merely *loads* through an
  // installed descriptor finalizes it — aborting an InPrep transaction.
  TxManager mgr;
  U64Obj a(1);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, true, true));
  std::thread([&] {
    EXPECT_EQ(a.load(), 1u);  // resolves to the pre-tx value
  }).join();
  EXPECT_THROW(mgr.txEnd(), TransactionAborted);
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(mgr.stats().conflict_aborts, 1u);
}

TEST(Mcns, InTxLoadByPeerForcesAbortOfStalledInPrepTx) {
  // The in-transaction analogue of the test above: a peer's nbtcLoad waits
  // out its grace (kLoadGraceSpins pauses), then finalizes an owner that
  // is still preparing — aborting it — and reads the pre-tx value.
  TxManager mgr;
  U64Obj a(1);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, true, true));
  std::thread([&] {
    mgr.txBegin();
    EXPECT_EQ(a.nbtcLoad(), 1u);
    mgr.txEnd();
  }).join();
  EXPECT_THROW(mgr.txEnd(), TransactionAborted);
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(mgr.stats().conflict_aborts, 1u);
}

TEST(Mcns, InTxLoadGraceLetsCommittingOwnerFinish) {
  // A peer's in-transaction load that meets a preparing owner's
  // descriptor waits kLoadGraceSpins pauses before finalizing it, so an
  // owner that commits within that time stays committed and the load
  // returns its value. Here the owner commits half a grace after it sees
  // the peer announce the load. Without the grace the peer finalizes the
  // owner first in nearly every trial. Only trials in which the owner saw
  // the announcement sooner than the fastest measured grace count: in the
  // others the owner was not running, and no grace can help it.
  using Clock = std::chrono::steady_clock;
  U64Obj probe(0);
  auto grace = Clock::duration::max();  // the grace's wait loop, unloaded
  for (int i = 0; i < 100; i++) {
    const auto t0 = Clock::now();
    for (int j = 0; j < U64Obj::kLoadGraceSpins; j++) {
      (void)probe.raw();
      medley::util::cpu_relax();
    }
    grace = std::min(grace, Clock::now() - t0);
  }
  int timely = 0, committed = 0;
  for (int trial = 0; trial < 400 && timely < 40; trial++) {
    TxManager mgr;
    U64Obj a(1);
    std::atomic<int> phase{0};
    std::uint64_t seen = 0;
    Clock::time_point announced;
    std::thread peer([&] {
      while (phase.load() != 1) std::this_thread::yield();
      mgr.txBegin();
      announced = Clock::now();
      phase.store(2);
      seen = a.nbtcLoad();
      mgr.txEnd();
    });
    mgr.txBegin();
    EXPECT_TRUE(a.nbtcCAS(1, 10, true, true));  // no early return: peer runs
    phase.store(1);
    while (phase.load() != 2) medley::util::cpu_relax();
    const auto noticed = Clock::now();
    for (int i = 0; i < U64Obj::kLoadGraceSpins / 2; i++) {
      medley::util::cpu_relax();
    }
    const bool ok = try_tx_end(mgr);
    peer.join();
    EXPECT_EQ(seen, ok ? 10u : 1u);
    EXPECT_EQ(a.load(), ok ? 10u : 1u);
    if (noticed - announced >= grace) continue;
    timely++;
    if (ok) committed++;
  }
  if (timely < 10) GTEST_SKIP() << "owner threads were not running promptly";
  EXPECT_GT(2 * committed, timely)
      << committed << " of " << timely << " owners stayed committed";
}

TEST(Mcns, PeerNbtcCasForcesAbortAndProceeds) {
  TxManager mgr;
  U64Obj a(1);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, true, true));
  std::thread([&] {
    // Non-transactional CAS from a peer: resolves our descriptor (abort)
    // and then applies over the restored value.
    EXPECT_TRUE(a.CAS(1, 5));
  }).join();
  EXPECT_THROW(mgr.txEnd(), TransactionAborted);
  EXPECT_EQ(a.load(), 5u);
}

TEST(Mcns, SelfAbortDiscoveredAtNextAccess) {
  TxManager mgr;
  U64Obj a(1), b(2);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, true, true));
  std::thread([&] { (void)a.load(); }).join();  // peer aborts us
  // The next instrumented access notices the doomed status and throws.
  EXPECT_THROW(b.nbtcCAS(2, 20, true, true), TransactionAborted);
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(b.load(), 2u);
}

TEST(Mcns, NonCriticalCasOutsideSpeculationExecutesOnTheFly) {
  TxManager mgr;
  U64Obj a(1);
  mgr.txBegin();
  // pub_pt=false and speculation not started: plain CAS, immediate effect.
  ASSERT_TRUE(a.nbtcCAS(1, 2, false, false));
  EXPECT_EQ(a.raw().hi % 2, 0u);  // no descriptor installed
  std::thread([&] { EXPECT_EQ(a.load(), 2u); }).join();  // visible pre-commit
  mgr.txEnd();
  EXPECT_EQ(a.load(), 2u);
}

TEST(Mcns, LinPtEndsSpeculationInterval) {
  TxManager mgr;
  U64Obj a(1), helper(5);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 2, /*lin=*/true, /*pub=*/true));
  // Interval ended at the lin point: this helping CAS is non-critical.
  ASSERT_TRUE(helper.nbtcCAS(5, 6, false, false));
  EXPECT_EQ(helper.raw().hi % 2, 0u);
  mgr.txEnd();
  EXPECT_EQ(a.load(), 2u);
  EXPECT_EQ(helper.load(), 6u);
}

TEST(Mcns, PubWithoutLinKeepsIntervalOpen) {
  TxManager mgr;
  U64Obj a(1), b(2);
  mgr.txBegin();
  ASSERT_TRUE(a.nbtcCAS(1, 10, /*lin=*/false, /*pub=*/true));
  // Interval still open: the next CAS is critical even without pub_pt.
  ASSERT_TRUE(b.nbtcCAS(2, 20, /*lin=*/true, /*pub=*/false));
  EXPECT_EQ(b.raw().hi % 2, 1u);  // installed
  mgr.txEnd();
  EXPECT_EQ(a.load(), 10u);
  EXPECT_EQ(b.load(), 20u);
}

TEST(Mcns, CapacityOverflowAborts) {
  TxManager mgr;
  constexpr int kN = medley::Desc::kWriteCap + 1;
  std::vector<std::unique_ptr<U64Obj>> cells;
  cells.reserve(kN);
  for (int i = 0; i < kN; i++) cells.push_back(std::make_unique<U64Obj>(0));
  bool aborted = false;
  try {
    mgr.txBegin();
    for (int i = 0; i < kN; i++) {
      cells[static_cast<std::size_t>(i)]->nbtcCAS(0, 1, false, true);
    }
    mgr.txEnd();
  } catch (const TransactionAborted& e) {
    aborted = true;
    EXPECT_EQ(e.reason(), AbortReason::Capacity);
  }
  EXPECT_TRUE(aborted);
  // Rollback must have restored every installed cell.
  for (auto& c : cells) EXPECT_EQ(c->load(), 0u);
}

TEST(Mcns, DescriptorReusedAcrossManySerials) {
  TxManager mgr;
  U64Obj a(0);
  for (std::uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(try_tx(mgr, [&] {
      ASSERT_TRUE(a.nbtcCAS(i, i + 1, true, true));
    }));
  }
  EXPECT_EQ(a.load(), 2000u);
  EXPECT_EQ(mgr.stats().commits, 2000u);
}

TEST(Mcns, ConservationUnderConcurrentTransfers) {
  // N cells each start with 1000; every transaction moves 1 unit between
  // two random cells with both updates critical. The sum is invariant.
  constexpr int kCells = 8, kThreads = 4, kTxPerThread = 2000;
  TxManager mgr;
  std::vector<std::unique_ptr<U64Obj>> cells;
  for (int i = 0; i < kCells; i++)
    cells.push_back(std::make_unique<U64Obj>(1000));

  medley::test::run_threads(kThreads, [&](int t) {
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
    for (int i = 0; i < kTxPerThread; i++) {
      auto from = rng.next_bounded(kCells);
      auto to = rng.next_bounded(kCells);
      if (from == to) continue;
      medley::execute_tx(mgr, [&] {
        auto vf = cells[from]->nbtcLoad();
        auto vt = cells[to]->nbtcLoad();
        if (vf == 0) mgr.txAbort();
        if (!cells[from]->nbtcCAS(vf, vf - 1, true, true)) mgr.txAbort();
        if (!cells[to]->nbtcCAS(vt, vt + 1, true, true)) mgr.txAbort();
      });
    }
  });

  std::uint64_t sum = 0;
  for (auto& c : cells) sum += c->load();
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kCells) * 1000u);
  // No descriptor left behind.
  for (auto& c : cells) EXPECT_EQ(c->raw().hi % 2, 0u);
}

TEST(Mcns, ObstructionFreedomSoloThreadAlwaysCommits) {
  // With no concurrency, a transaction that retries on abort must commit
  // in one round (Theorem 4).
  TxManager mgr;
  U64Obj a(0), b(0);
  auto aborts = medley::execute_tx(mgr, [&] {
    ASSERT_TRUE(a.nbtcCAS(a.nbtcLoad(), 1, true, true));
    ASSERT_TRUE(b.nbtcCAS(b.nbtcLoad(), 1, true, true));
  }).stats;
  EXPECT_EQ(aborts.aborts(), 0u);
  EXPECT_EQ(a.load(), 1u);
  EXPECT_EQ(b.load(), 1u);
}

TEST(Mcns, TornMultiCellStateNeverObservable) {
  // Writer transactions set {x, y} to {k, k}; readers (transactionally,
  // with validation) must never observe x != y.
  TxManager mgr;
  U64Obj x(0), y(0);
  medley::test::Harness h(&mgr);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    for (std::uint64_t k = 1; k <= 3000; k++) {
      medley::execute_tx(mgr, [&] {
        auto vx = x.nbtcLoad();
        auto vy = y.nbtcLoad();
        if (!x.nbtcCAS(vx, k, true, true)) mgr.txAbort();
        if (!y.nbtcCAS(vy, k, true, true)) mgr.txAbort();
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      try {
        mgr.txBegin();
        auto vx = x.nbtcLoad();
        h.addToReadSet(&x, vx);
        auto vy = y.nbtcLoad();
        h.addToReadSet(&y, vy);
        mgr.txEnd();
        if (vx != vy) torn.fetch_add(1);
      } catch (const TransactionAborted&) {
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(x.load(), 3000u);
  EXPECT_EQ(y.load(), 3000u);
}
