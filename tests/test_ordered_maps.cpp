// Typed property suite over the ordered-map structures (Fraser skiplist,
// rotating skiplist, Natarajan-Mittal BST, and the skip hash — the Fraser
// skiplist with its hash-bucket index): identical map semantics, NBTC
// transactional behaviour, an std::map oracle under random workloads, and
// concurrent conservation invariants. Each test runs once per structure
// via TYPED_TEST.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "ds/fraser_skiplist.hpp"
#include "ds/natarajan_bst.hpp"
#include "ds/rotating_skiplist.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::TransactionAborted;
using medley::TxManager;

template <typename S>
class OrderedMap : public ::testing::Test {
 protected:
  TxManager mgr;
};

using Structures =
    ::testing::Types<medley::ds::FraserSkiplist<std::uint64_t, std::uint64_t>,
                     medley::ds::RotatingSkiplist<std::uint64_t, std::uint64_t>,
                     medley::ds::NatarajanBST<std::uint64_t, std::uint64_t>,
                     medley::ds::SkipHash<std::uint64_t, std::uint64_t>>;
TYPED_TEST_SUITE(OrderedMap, Structures);

TYPED_TEST(OrderedMap, InsertGetRoundTrip) {
  TypeParam s(&this->mgr);
  EXPECT_TRUE(s.insert(10, 100));
  EXPECT_EQ(s.get(10), std::optional<std::uint64_t>(100));
  EXPECT_FALSE(s.get(11).has_value());
}

TYPED_TEST(OrderedMap, InsertDuplicateFails) {
  TypeParam s(&this->mgr);
  EXPECT_TRUE(s.insert(10, 100));
  EXPECT_FALSE(s.insert(10, 200));
  EXPECT_EQ(s.get(10), std::optional<std::uint64_t>(100));
  EXPECT_EQ(s.size_slow(), 1u);
}

TYPED_TEST(OrderedMap, RemoveSemantics) {
  TypeParam s(&this->mgr);
  EXPECT_FALSE(s.remove(5).has_value());
  s.insert(5, 50);
  EXPECT_EQ(s.remove(5), std::optional<std::uint64_t>(50));
  EXPECT_FALSE(s.contains(5));
  EXPECT_FALSE(s.remove(5).has_value());
}

TYPED_TEST(OrderedMap, ReinsertAfterRemove) {
  TypeParam s(&this->mgr);
  s.insert(5, 50);
  s.remove(5);
  EXPECT_TRUE(s.insert(5, 51));
  EXPECT_EQ(s.get(5), std::optional<std::uint64_t>(51));
}

TYPED_TEST(OrderedMap, AscendingInsertionAllRetrievable) {
  TypeParam s(&this->mgr);
  for (std::uint64_t k = 1; k <= 500; k++) ASSERT_TRUE(s.insert(k, k * 3));
  for (std::uint64_t k = 1; k <= 500; k++) {
    ASSERT_EQ(s.get(k), std::optional<std::uint64_t>(k * 3)) << k;
  }
  EXPECT_EQ(s.size_slow(), 500u);
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, DescendingInsertionAllRetrievable) {
  TypeParam s(&this->mgr);
  for (std::uint64_t k = 500; k >= 1; k--) ASSERT_TRUE(s.insert(k, k));
  EXPECT_EQ(s.size_slow(), 500u);
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, KeysSlowSortedAndUnique) {
  TypeParam s(&this->mgr);
  medley::util::Xoshiro256 rng(3);
  std::set<std::uint64_t> oracle;
  for (int i = 0; i < 400; i++) {
    auto k = rng.next_bounded(1000);
    if (s.insert(k, k)) oracle.insert(k);
  }
  auto keys = s.keys_slow();
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), oracle.size());
  std::size_t i = 0;
  for (auto k : oracle) EXPECT_EQ(keys[i++], k);
}

TYPED_TEST(OrderedMap, OracleAgreementUnderRandomOps) {
  // 6000 random ops mirrored into std::map; every result must agree.
  TypeParam s(&this->mgr);
  std::map<std::uint64_t, std::uint64_t> oracle;
  medley::util::Xoshiro256 rng(42);
  for (int i = 0; i < 6000; i++) {
    auto k = rng.next_bounded(200);
    switch (rng.next_bounded(3)) {
      case 0: {
        bool ours = s.insert(k, i);
        bool theirs = oracle.emplace(k, i).second;
        ASSERT_EQ(ours, theirs) << "insert " << k << " @" << i;
        break;
      }
      case 1: {
        auto ours = s.remove(k);
        auto it = oracle.find(k);
        if (it == oracle.end()) {
          ASSERT_FALSE(ours.has_value()) << "remove " << k << " @" << i;
        } else {
          ASSERT_EQ(ours, std::optional<std::uint64_t>(it->second));
          oracle.erase(it);
        }
        break;
      }
      default: {
        auto ours = s.get(k);
        auto it = oracle.find(k);
        if (it == oracle.end()) {
          ASSERT_FALSE(ours.has_value()) << "get " << k << " @" << i;
        } else {
          ASSERT_EQ(ours, std::optional<std::uint64_t>(it->second));
        }
        break;
      }
    }
  }
  EXPECT_EQ(s.size_slow(), oracle.size());
  EXPECT_TRUE(s.invariants_hold_slow());
}

// ---------------------------------------------------------------------
// Transactional semantics.

TYPED_TEST(OrderedMap, TxTwoInsertsCommitTogether) {
  TypeParam s(&this->mgr);
  this->mgr.txBegin();
  EXPECT_TRUE(s.insert(1, 10));
  EXPECT_TRUE(s.insert(2, 20));
  this->mgr.txEnd();
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, TxAbortRollsBackInsert) {
  TypeParam s(&this->mgr);
  try {
    this->mgr.txBegin();
    s.insert(1, 10);
    this->mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size_slow(), 0u);
}

TYPED_TEST(OrderedMap, TxAbortRollsBackRemove) {
  TypeParam s(&this->mgr);
  s.insert(1, 10);
  try {
    this->mgr.txBegin();
    EXPECT_EQ(s.remove(1), std::optional<std::uint64_t>(10));
    this->mgr.txAbort();
  } catch (const TransactionAborted&) {
  }
  EXPECT_EQ(s.get(1), std::optional<std::uint64_t>(10));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, TxReadOwnInsert) {
  TypeParam s(&this->mgr);
  this->mgr.txBegin();
  s.insert(7, 70);
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(70));
  EXPECT_FALSE(s.insert(7, 71));
  this->mgr.txEnd();
  EXPECT_EQ(s.get(7), std::optional<std::uint64_t>(70));
}

TYPED_TEST(OrderedMap, TxReadOwnRemove) {
  TypeParam s(&this->mgr);
  s.insert(7, 70);
  this->mgr.txBegin();
  EXPECT_EQ(s.remove(7), std::optional<std::uint64_t>(70));
  EXPECT_FALSE(s.get(7).has_value());
  this->mgr.txEnd();
  EXPECT_FALSE(s.contains(7));
}

TYPED_TEST(OrderedMap, TxInsertThenRemoveNetsNothing) {
  TypeParam s(&this->mgr);
  this->mgr.txBegin();
  EXPECT_TRUE(s.insert(3, 30));
  EXPECT_EQ(s.remove(3), std::optional<std::uint64_t>(30));
  this->mgr.txEnd();
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size_slow(), 0u);
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, TxRemoveThenReinsertSameKey) {
  TypeParam s(&this->mgr);
  s.insert(3, 30);
  this->mgr.txBegin();
  s.remove(3);
  EXPECT_TRUE(s.insert(3, 31));
  this->mgr.txEnd();
  EXPECT_EQ(s.get(3), std::optional<std::uint64_t>(31));
  EXPECT_EQ(s.size_slow(), 1u);
}

TYPED_TEST(OrderedMap, TxMoveBetweenTwoInstances) {
  TypeParam a(&this->mgr), b(&this->mgr);
  a.insert(9, 90);
  medley::execute_tx(this->mgr, [&] {
    auto v = a.remove(9);
    if (v) b.insert(9, *v);
  });
  EXPECT_FALSE(a.contains(9));
  EXPECT_EQ(b.get(9), std::optional<std::uint64_t>(90));
}

TYPED_TEST(OrderedMap, TxStaleReadAbortsAtCommit) {
  TypeParam s(&this->mgr);
  s.insert(1, 10);
  bool aborted = false;
  try {
    this->mgr.txBegin();
    ASSERT_TRUE(s.get(1).has_value());
    std::thread([&] { EXPECT_TRUE(s.remove(1).has_value()); }).join();
    this->mgr.txEnd();
  } catch (const TransactionAborted&) {
    aborted = true;
  }
  EXPECT_TRUE(aborted);
}

TYPED_TEST(OrderedMap, TxAbsenceReadAbortsWhenKeyAppears) {
  TypeParam s(&this->mgr);
  bool aborted = false;
  try {
    this->mgr.txBegin();
    EXPECT_FALSE(s.get(1).has_value());
    std::thread([&] { EXPECT_TRUE(s.insert(1, 11)); }).join();
    this->mgr.txEnd();
  } catch (const TransactionAborted&) {
    aborted = true;
  }
  EXPECT_TRUE(aborted);
}

// ---------------------------------------------------------------------
// Concurrency.

TYPED_TEST(OrderedMap, ConcDisjointInsertsAllLand) {
  TypeParam s(&this->mgr);
  constexpr int kThreads = 6, kPer = 300;
  medley::test::run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kPer; i++) {
      auto k = static_cast<std::uint64_t>(t) * kPer +
               static_cast<std::uint64_t>(i) + 1;
      ASSERT_TRUE(s.insert(k, k));
    }
  });
  EXPECT_EQ(s.size_slow(), static_cast<std::size_t>(kThreads * kPer));
  EXPECT_TRUE(s.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, ConcChurnConservation) {
  TypeParam s(&this->mgr);
  constexpr int kThreads = 6, kOps = 1200;
  constexpr std::uint64_t kKeys = 48;
  std::atomic<std::int64_t> net{0};
  medley::test::run_threads(kThreads, [&](int t) {
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7 + 3);
    for (int i = 0; i < kOps; i++) {
      auto k = rng.next_bounded(kKeys) + 1;
      if (rng.next() & 1) {
        if (s.insert(k, k)) net.fetch_add(1);
      } else if (s.remove(k).has_value()) {
        net.fetch_sub(1);
      }
    }
  });
  EXPECT_EQ(s.size_slow(), static_cast<std::size_t>(net.load()));
  EXPECT_TRUE(s.invariants_hold_slow());
  auto keys = s.keys_slow();
  std::set<std::uint64_t> uniq(keys.begin(), keys.end());
  EXPECT_EQ(uniq.size(), keys.size());
}

TYPED_TEST(OrderedMap, ConcTransactionalKeyMigration) {
  // Keys migrate atomically between two instances; at the end each key
  // lives in exactly one of them.
  TypeParam a(&this->mgr), b(&this->mgr);
  constexpr std::uint64_t kKeys = 32;
  for (std::uint64_t k = 1; k <= kKeys; k++) a.insert(k, k);
  medley::test::run_threads(4, [&](int t) {
    medley::util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 11);
    for (int i = 0; i < 400; i++) {
      auto k = rng.next_bounded(kKeys) + 1;
      TypeParam& src = (rng.next() & 1) ? a : b;
      TypeParam& dst = (&src == &a) ? b : a;
      try {
        this->mgr.txBegin();
        auto v = src.remove(k);
        if (v) dst.insert(k, *v);
        this->mgr.txEnd();
      } catch (const TransactionAborted&) {
      }
    }
  });
  for (std::uint64_t k = 1; k <= kKeys; k++) {
    int copies = (a.contains(k) ? 1 : 0) + (b.contains(k) ? 1 : 0);
    EXPECT_EQ(copies, 1) << "key " << k;
  }
  EXPECT_TRUE(a.invariants_hold_slow());
  EXPECT_TRUE(b.invariants_hold_slow());
}

TYPED_TEST(OrderedMap, ConcReadersNeverSeeTornState) {
  // Writers atomically swap key k between two instances; readers in
  // transactions must always observe exactly one copy.
  TypeParam a(&this->mgr), b(&this->mgr);
  a.insert(1, 1);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int i = 0; i < 600; i++) {
      medley::execute_tx(this->mgr, [&] {
        if (auto v = a.remove(1)) {
          b.insert(1, *v);
        } else if (auto w = b.remove(1)) {
          a.insert(1, *w);
        }
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      try {
        this->mgr.txBegin();
        bool in_a = a.contains(1);
        bool in_b = b.contains(1);
        this->mgr.txEnd();
        if (in_a == in_b) torn.fetch_add(1);  // both or neither: torn
      } catch (const TransactionAborted&) {
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}
