// The ladder prelude of the traced run: the cost of one get, put and scan
// at each rung of the stack, single-threaded and uncontended, each rung on
// its own fresh structures holding the same 100k keys as kv-update.
//
//   notx   the Medley structure op outside any transaction
//   tx1    the same op inside a one-op transaction (TxExecutor::execute)
//   store  the composed MedleyStore op (hash + skiplist + feed, one tx)
//   comb   the store put with flat combining on
//   wire   a synchronous client round trip to a one-worker server
//
// plus the parts of a store put: `replace` (skiplist remove + insert) and
// `feed` (one change-feed enqueue). tx1 - notx is the per-op cost of the
// NBTC core; store - (put.tx1 + replace.tx1 + feed.tx1) is what composing
// the three into one transaction adds. Each rung reports the median over
// kReps repetitions of the mean ns per op.

#include "common.hpp"
#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashtable.hpp"
#include "ds/ms_queue.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "store/store.hpp"

namespace perfbench {
namespace {

namespace ms = medley::store;
using Key = std::uint64_t;
using Val = std::uint64_t;

constexpr std::uint64_t kKeys = 100'000;
constexpr int kReps = 7;
constexpr std::size_t kScanLen = 50;  // mean of kv-scan's 1..100

/// Mean ns per call of f(i) over n calls, median over kReps repetitions.
/// `between` runs untimed after each repetition (drains, resets).
template <typename F, typename G>
double rung(std::size_t n, F&& f, G&& between) {
  return median_of(kReps, [&] {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; i++) f(i);
    const double per = static_cast<double>(now_ns() - t0) / n;
    between();
    return per;
  });
}
template <typename F>
double rung(std::size_t n, F&& f) {
  return rung(n, std::forward<F>(f), [] {});
}

template <typename Store>
void preload(Store& kv) {
  std::vector<std::pair<Key, Val>> batch;
  for (Key k = 1; k <= kKeys; k += 32) {
    batch.clear();
    for (Key j = k; j < std::min(kKeys + 1, k + 32); j++) {
      batch.emplace_back(j, tag_value(j, 0));
    }
    kv.multi_put(batch);
    kv.poll_feed(64);
  }
}

template <typename Store>
void drain(Store& kv) {
  while (!kv.poll_feed(ms::kMaxFeedDrainPerTx).empty()) {
  }
}

}  // namespace

void run_ladder(Result& r) {
  pin_to(1);
  medley::util::Xoshiro256 rng(12345);
  std::vector<Key> keys(20000);
  for (Key& k : keys) k = 1 + rng.next_bounded(kKeys);
  auto key = [&](std::size_t i) { return keys[i % keys.size()]; };
  std::uint64_t bad = 0, calls = 0;
  auto check = [&](const std::optional<Val>& v, Key k) {
    calls++;
    if (!v || !tagged_for(*v, k)) bad++;
  };
  medley::TxExecutor ex;

  {  // raw structures: notx and tx1 rungs
    medley::TxManager mgr;
    medley::ds::MichaelHashTable<Key, Val> hash(&mgr, ms::StoreConfig{}.buckets);
    medley::ds::FraserSkiplist<Key, Val> skip(&mgr);
    medley::ds::MSQueue<Val> feed(&mgr);
    for (Key k = 1; k <= kKeys; k++) {
      hash.put(k, tag_value(k, 0));
      skip.insert(k, tag_value(k, 0));
    }
    std::uint64_t ver = 1;
    r.set("ladder.get.notx_ns",
          rung(20000, [&](std::size_t i) { check(hash.get(key(i)), key(i)); }),
          "ns");
    r.set("ladder.get.tx1_ns", rung(20000, [&](std::size_t i) {
            std::optional<Val> v;
            ex.execute(mgr, [&] { v = hash.get(key(i)); });
            check(v, key(i));
          }),
          "ns");
    r.set("ladder.put.notx_ns", rung(20000, [&](std::size_t i) {
            check(hash.put(key(i), tag_value(key(i), ver++)), key(i));
          }),
          "ns");
    r.set("ladder.put.tx1_ns", rung(20000, [&](std::size_t i) {
            std::optional<Val> v;
            ex.execute(mgr,
                       [&] { v = hash.put(key(i), tag_value(key(i), ver++)); });
            check(v, key(i));
          }),
          "ns");
    r.set("ladder.replace.notx_ns", rung(5000, [&](std::size_t i) {
            check(skip.remove(key(i)), key(i));
            skip.insert(key(i), tag_value(key(i), ver++));
          }),
          "ns");
    r.set("ladder.replace.tx1_ns", rung(5000, [&](std::size_t i) {
            std::optional<Val> v;
            ex.execute(mgr, [&] {
              v = skip.remove(key(i));
              skip.insert(key(i), tag_value(key(i), ver++));
            });
            check(v, key(i));
          }),
          "ns");
    r.set("ladder.feed.tx1_ns",
          rung(
              20000,
              [&](std::size_t i) {
                ex.execute(mgr, [&] { feed.enqueue(tag_value(key(i), 0)); });
              },
              [&] {
                while (feed.dequeue()) {
                }
              }),
          "ns");
    r.set("ladder.scan.notx_ns", rung(2000, [&](std::size_t i) {
            const Key lo = std::min(key(i), kKeys - kScanLen);
            auto v = skip.scan(lo, kScanLen);
            calls++;
            if (v.size() != kScanLen || v.front().first != lo) bad++;
          }),
          "ns");
    r.set("ladder.scan.tx1_ns", rung(2000, [&](std::size_t i) {
            const Key lo = std::min(key(i), kKeys - kScanLen);
            std::vector<std::pair<Key, Val>> v;
            ex.execute(mgr, [&] { v = skip.scan(lo, kScanLen); });
            calls++;
            if (v.size() != kScanLen || v.front().first != lo) bad++;
          }),
          "ns");
  }

  {  // composed store op
    medley::TxManager mgr;
    ms::MedleyStore<Key, Val> kv(&mgr);
    preload(kv);
    drain(kv);
    std::uint64_t ver = 1;
    r.set("ladder.get.store_ns",
          rung(20000, [&](std::size_t i) { check(kv.get(key(i)), key(i)); }),
          "ns");
    r.set("ladder.put.store_ns",
          rung(
              5000,
              [&](std::size_t i) {
                check(kv.put(key(i), tag_value(key(i), ver++)), key(i));
              },
              [&] { drain(kv); }),
          "ns");
    r.set("ladder.scan.store_ns", rung(2000, [&](std::size_t i) {
            const Key lo = std::min(key(i), kKeys - kScanLen);
            auto v = kv.scan(lo, kScanLen);
            calls++;
            if (v.size() != kScanLen || v.front().first != lo) bad++;
          }),
          "ns");
  }

  {  // store put through the flat combiner
    ms::StoreConfig cfg;
    cfg.combining.enabled = true;
    medley::TxManager mgr;
    ms::MedleyStore<Key, Val> kv(&mgr, cfg);
    preload(kv);
    drain(kv);
    std::uint64_t ver = 1;
    r.set("ladder.put.comb_ns",
          rung(
              5000,
              [&](std::size_t i) {
                check(kv.put(key(i), tag_value(key(i), ver++)), key(i));
              },
              [&] { drain(kv); }),
          "ns");
  }

  {  // synchronous wire round trips, one server worker on its own cpu
    medley::TxManager mgr;
    ms::MedleyStore<Key, Val> kv(&mgr);
    preload(kv);
    drain(kv);
    medley::net::StoreAdapter<decltype(kv)> adapter(&kv);
    medley::net::NetConfig ncfg;
    ncfg.workers = 1;
    set_mask({2});
    medley::net::Server server(&adapter, ncfg);
    server.start();
    pin_to(1);
    {
      medley::net::Client c("127.0.0.1", server.port());
      std::uint64_t ver = 1;
      r.set("ladder.get.wire_us",
            rung(2000, [&](std::size_t i) { check(c.get(key(i)), key(i)); }) /
                1000.0,
            "us");
      r.set("ladder.put.wire_us",
            rung(
                2000,
                [&](std::size_t i) {
                  check(c.put(key(i), tag_value(key(i), ver++)), key(i));
                },
                [&] { drain(kv); }) /
                1000.0,
            "us");
    }
    server.stop();
  }
  unpin();

  r.attempted += calls;
  if (bad > 0) {
    r.failed += bad;
    r.correct = false;
    r.note("check failed: " + std::to_string(bad) +
           " ladder calls returned a wrong value");
  }
  r.note("ladder: single thread on cpu 1 (wire rung: server worker on cpu 2), "
         "100k keys, median of " + std::to_string(kReps) + " repetitions");
}

}  // namespace perfbench
