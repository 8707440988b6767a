// Large top-level reads complete. A full transaction's read set holds at
// most Desc::kReadCap entries, so a range/scan run as one would
// Capacity-abort and retry without end. Top-level store reads are
// read-only snapshots with an unbounded read log instead: on the default
// StoreConfig every store flavor returns every key of a window far larger
// than kReadCap. A hang here is the bug under test, so CMake gives this
// executable a short ctest timeout.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/descriptor.hpp"
#include "store/range_sharded_store.hpp"
#include "store/sharded_store.hpp"
#include "store/store.hpp"

using medley::core::TxManager;
using medley::store::MedleyStore;
using medley::store::RangeShardedMedleyStore;
using medley::store::ShardedMedleyStore;

namespace {

constexpr std::uint64_t kKeys = 8000;
static_assert(kKeys > medley::core::Desc::kReadCap,
              "the window must overflow a full transaction's read set");

template <typename S>
void expect_every_key(S& s) {
  for (std::uint64_t k = 0; k < kKeys; k++) s.put(k, k + 1);
  const auto aborts_before = s.stats().aborts();

  auto check = [](const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      got) {
    ASSERT_EQ(got.size(), kKeys);
    for (std::uint64_t k = 0; k < kKeys; k++) {
      ASSERT_EQ(got[k].first, k);
      ASSERT_EQ(got[k].second, k + 1);
    }
  };
  check(s.range(0, 100'000));
  check(s.scan(0, kKeys + 100));
  // A quiescent store commits each read on its first snapshot attempt.
  EXPECT_EQ(s.stats().aborts(), aborts_before);
}

TEST(LargeReads, MedleyStoreReturnsEveryKey) {
  TxManager mgr;
  MedleyStore<std::uint64_t, std::uint64_t> s(&mgr);
  expect_every_key(s);
}

TEST(LargeReads, ShardedMedleyStoreReturnsEveryKey) {
  ShardedMedleyStore<std::uint64_t, std::uint64_t> s(4);
  expect_every_key(s);
}

TEST(LargeReads, RangeShardedMedleyStoreReturnsEveryKey) {
  using RS = RangeShardedMedleyStore<std::uint64_t, std::uint64_t>;
  RS s(RS::Partitioner::uniform(0, kKeys, 4));
  expect_every_key(s);
}

}  // namespace
