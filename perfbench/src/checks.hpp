#pragma once
// The quiescent output check every store gets after its timed phases.

#include <optional>
#include <string>

#include "common.hpp"
#include "store/basic_store.hpp"

namespace perfbench {

/// Chunked scans over the whole key space agree key-for-key with get and
/// every value carries its key's tag; the live count matches
/// stats().key_count() and the keys written; draining the feed yields
/// exactly feed_depth() entries, and feed_pushed equals the preload plus
/// every committed put. Chunks stay far below Desc::kReadCap: one
/// whole-store range() above it never returns at this commit. Each
/// mismatch is one failed check.
template <typename Store>
void audit_store(Store& kv, Result& r, std::uint64_t expect_keys,
                 std::uint64_t expect_pushed) {
  constexpr std::size_t kChunk = 1024;
  std::uint64_t count = 0, bad = 0;
  std::uint64_t lo = 0;
  for (;;) {
    auto chunk = kv.scan(lo, kChunk);
    if (chunk.empty()) break;
    for (const auto& [k, v] : chunk) {
      const std::optional<std::uint64_t> g = kv.get(k);
      if (k < lo || !tagged_for(v, k) || !g || *g != v) {
        if (bad++ < 3) {
          r.fail("audit: key " + std::to_string(k) +
                 " disagrees between scan and get or carries another tag");
        } else {
          r.failed++;
        }
      }
      count++;
      lo = k + 1;
    }
  }
  r.attempted += count;
  const auto st = kv.stats();
  if (count != st.key_count() || count != expect_keys) {
    r.fail("audit: scanned " + std::to_string(count) + " keys, key_count " +
           std::to_string(st.key_count()) + ", expected " +
           std::to_string(expect_keys));
  }
  const std::uint64_t depth = kv.feed_depth();
  std::uint64_t drained = 0;
  for (;;) {
    const std::size_t n =
        kv.poll_feed(medley::store::kMaxFeedDrainPerTx).size();
    if (n == 0) break;
    drained += n;
  }
  const auto after = kv.stats();
  if (st.feed_pushed != st.feed_polled + drained || depth != drained ||
      after.feed_pushed != after.feed_polled ||
      st.feed_pushed != expect_pushed) {
    r.fail("audit: feed pushed " + std::to_string(st.feed_pushed) +
           ", polled " + std::to_string(st.feed_polled) + ", depth " +
           std::to_string(depth) + ", drained " + std::to_string(drained) +
           ", expected pushed " + std::to_string(expect_pushed));
  }
  r.attempted += 2;
}

}  // namespace perfbench
