// Observability layer (src/obs/): histogram bucket geometry and quantiles
// against a sorted-vector oracle, trace-ring wraparound and multi-thread
// dump consistency, metrics-registry label aggregation, the pinned
// conflict-abort-retry-commit trace sequence, per-thread slot lifecycle
// under thread churn, and the store-level end-to-end dump (which doubles
// as the CI exposition producer via MEDLEY_METRICS_OUT).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/medley.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

using medley::AbortReason;
using medley::CASObj;
using medley::TransactionAborted;
using medley::TxExecutor;
using medley::TxManager;
using medley::TxPolicy;
namespace obs = medley::obs;
namespace ms = medley::store;
namespace mu = medley::util;
using medley::test::run_threads;
using U64Obj = CASObj<std::uint64_t>;

namespace h = medley::test::harness;

using B = obs::HistogramBuckets;

// ---------------------------------------------------------------------
// Histogram: bucket geometry.

TEST(Histogram, BucketGeometryInvariants) {
  // Exact below kSubCount: one bucket per value.
  for (std::uint64_t v = 0; v < B::kSubCount; v++) {
    const int b = B::bucket_of(v);
    EXPECT_EQ(B::lower_bound(b), v);
    EXPECT_EQ(B::upper_bound(b), v);
  }
  // Every value lies inside its bucket, buckets are monotone in value,
  // and the relative width never exceeds 1/kSubCount (6.25%).
  std::uint64_t probes[] = {16,      17,      255,        256,
                            999,     4096,    123456789,  1u << 31,
                            ~0ull / 3, ~0ull - 1, ~0ull};
  int prev = -1;
  for (std::uint64_t v : probes) {
    const int b = B::bucket_of(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, B::kBucketCount);
    EXPECT_LE(B::lower_bound(b), v);
    EXPECT_GE(B::upper_bound(b), v);
    EXPECT_GE(b, prev);
    prev = b;
    if (v >= B::kSubCount && b + 1 < B::kBucketCount) {
      const double width =
          static_cast<double>(B::upper_bound(b) - B::lower_bound(b) + 1);
      EXPECT_LE(width / static_cast<double>(B::lower_bound(b)),
                1.0 / B::kSubCount + 1e-9)
          << "bucket " << b << " too wide for v=" << v;
    }
  }
  // Bucket edges tile the axis: upper(b) + 1 == lower(b+1).
  for (int b = 0; b + 1 < B::kBucketCount; b++) {
    ASSERT_EQ(B::upper_bound(b) + 1, B::lower_bound(b + 1)) << "bucket " << b;
  }
}

// ---------------------------------------------------------------------
// Histogram: quantiles against a sorted-vector oracle.

TEST(Histogram, QuantilesMatchSortedOracle) {
  obs::Histogram hist;
  std::vector<std::uint64_t> vals;
  mu::Xoshiro256 rng(42);
  for (int i = 0; i < 10'000; i++) {
    // Log-uniform-ish spread: exercise many octaves, not one decade.
    const std::uint64_t v = rng.next() >> (rng.next_bounded(50));
    vals.push_back(v);
    hist.record(v);
  }
  std::sort(vals.begin(), vals.end());
  const auto s = hist.snapshot();
  ASSERT_EQ(s.count, vals.size());
  EXPECT_EQ(s.min, vals.front());
  EXPECT_EQ(s.max, vals.back());

  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    std::uint64_t rank =
        q <= 0.0 ? 1
                 : static_cast<std::uint64_t>(
                       q * static_cast<double>(vals.size()) + 0.9999999999);
    rank = std::min<std::uint64_t>(std::max<std::uint64_t>(rank, 1),
                                   vals.size());
    const std::uint64_t oracle = vals[rank - 1];
    // The rank-th smallest value determines the answering bucket exactly,
    // so the histogram's answer is that bucket's upper bound clamped to
    // the observed max — never below the oracle, never beyond its bucket.
    const std::uint64_t expected =
        q <= 0.0 ? s.min
                 : std::min(B::upper_bound(B::bucket_of(oracle)), s.max);
    EXPECT_EQ(hist.snapshot().quantile(q), expected) << "q=" << q;
    EXPECT_GE(expected, oracle);
  }
}

TEST(Histogram, ExactBelowSixteen) {
  obs::Histogram hist;
  for (std::uint64_t v = 0; v < 16; v++) {
    for (std::uint64_t i = 0; i <= v; i++) hist.record(v);  // v+1 copies
  }
  const auto s = hist.snapshot();
  ASSERT_EQ(s.count, 16u * 17u / 2u);
  // Counts 1,2,...,16 for values 0..15: rank 68 falls in value 11's bucket
  // (cumulative 66 through value 10, 78 through 11) — and below 16 the
  // bucket IS the value.
  EXPECT_EQ(s.quantile(0.5), 11u);
  EXPECT_EQ(s.quantile(0.0), 0u);
  EXPECT_EQ(s.quantile(1.0), 15u);
}

TEST(Histogram, MergesThreadSlotsExactly) {
  obs::Histogram hist;
  constexpr int kThreads = 4, kPer = 1000;
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kPer; i++) {
      hist.record(static_cast<std::uint64_t>(t) * 10'000 + i);
    }
  });
  const auto s = hist.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPer));
  std::uint64_t sum = 0;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPer; i++) {
      sum += static_cast<std::uint64_t>(t) * 10'000 + i;
    }
  }
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 3u * 10'000 + kPer - 1);
  // Snapshots aggregate across histograms too (the sharded-store path).
  auto twice = s;
  twice += s;
  EXPECT_EQ(twice.count, 2 * s.count);
  EXPECT_EQ(twice.sum, 2 * s.sum);
  EXPECT_EQ(twice.max, s.max);
}

// ---------------------------------------------------------------------
// TraceRing: wraparound and multi-thread dumps.

TEST(TraceRing, WrapAroundKeepsNewestEvents) {
  obs::TraceRing ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  constexpr std::uint64_t kEmitted = 40;
  for (std::uint64_t i = 0; i < kEmitted; i++) {
    ring.emit(obs::TraceEvent::kAttempt, 0, static_cast<std::uint32_t>(i));
  }
  const int tid = mu::ThreadRegistry::tid();
  EXPECT_EQ(ring.written(tid), kEmitted);
  EXPECT_EQ(ring.dropped(tid), kEmitted - 16);
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].seq, kEmitted - 16 + i);
    EXPECT_EQ(events[i].aux, kEmitted - 16 + i);
    EXPECT_EQ(events[i].kind, obs::TraceEvent::kAttempt);
    EXPECT_EQ(events[i].tid, tid);
  }
  EXPECT_NE(ring.dump_text().find("attempt"), std::string::npos);
}

TEST(TraceRing, MultiThreadDumpIsCompleteAndOrdered) {
  obs::TraceRing ring(128);
  constexpr int kThreads = 4, kPer = 100;
  // Barrier AFTER acquiring the registry lease: if a thread could finish
  // before the next one started, the next would inherit its leased tid and
  // append to the same ring (the documented reuse contract) — here we want
  // four distinct concurrent rings.
  std::atomic<int> ready{0};
  run_threads(kThreads, [&](int) {
    medley::util::ThreadRegistry::tid();
    ready.fetch_add(1);
    while (ready.load() < kThreads) std::this_thread::yield();
    for (int i = 0; i < kPer; i++) {
      ring.emit(obs::TraceEvent::kCommit, 0, static_cast<std::uint32_t>(i));
    }
  });
  const auto events = ring.dump();  // writers joined: exact
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPer));
  // Per-thread sequences are contiguous 0..kPer-1; the merged dump is
  // sorted by timestamp.
  std::vector<std::vector<std::uint64_t>> per_tid;
  for (std::size_t i = 1; i < events.size(); i++) {
    EXPECT_GE(events[i].tsc, events[i - 1].tsc);
  }
  for (const auto& e : events) {
    ASSERT_GE(e.tid, 0);
    if (per_tid.size() <= static_cast<std::size_t>(e.tid)) {
      per_tid.resize(static_cast<std::size_t>(e.tid) + 1);
    }
    per_tid[static_cast<std::size_t>(e.tid)].push_back(e.seq);
  }
  int emitters = 0;
  for (auto& seqs : per_tid) {
    if (seqs.empty()) continue;
    emitters++;
    std::sort(seqs.begin(), seqs.end());
    ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kPer));
    for (int i = 0; i < kPer; i++) {
      EXPECT_EQ(seqs[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_EQ(emitters, kThreads);
}

// ---------------------------------------------------------------------
// MetricsRegistry: label aggregation, idempotence, exposition.

TEST(MetricsRegistry, LabelAggregationAndIdempotentRegistration) {
  obs::MetricsRegistry reg;
  auto& c1 = reg.counter("ops_total", "ops", {{"op", "get"}});
  auto& c2 = reg.counter("ops_total", "ops", {{"op", "get"}});
  EXPECT_EQ(&c1, &c2) << "same name+labels must be the same series";
  auto& c3 = reg.counter("ops_total", "ops", {{"op", "put"}});
  EXPECT_NE(&c1, &c3);
  // Label-order insensitivity: keys are canonicalized.
  auto& c4 = reg.counter("multi", "m", {{"a", "1"}, {"b", "2"}});
  auto& c5 = reg.counter("multi", "m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&c4, &c5);
  // A name registered as one type cannot come back as another.
  EXPECT_THROW(reg.gauge("ops_total", "oops"), std::logic_error);
  EXPECT_THROW(reg.histogram("ops_total", "oops"), std::logic_error);

  c1.inc();
  c1.inc();
  c3.inc(5);
  EXPECT_EQ(c1.value(), 2u);
  EXPECT_EQ(c3.value(), 5u);

  auto& g = reg.gauge_fn("depth", "queue depth", {}, [] { return 7.5; });
  EXPECT_DOUBLE_EQ(g.value(), 7.5);

  auto& hist = reg.histogram("lat_ns", "latency", {{"op", "get"}});
  for (std::uint64_t i = 1; i <= 100; i++) hist.record(i);

  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("# TYPE ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("ops_total{op=\"get\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ops_total{op=\"put\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum{op=\"get\"} 5050"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count{op=\"get\"} 100"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"name\":\"ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Pinned trace sequence: conflict -> abort -> retry -> commit.

namespace {

/// Attempt 0 runs managed and YOUNGER than the pinned transaction
/// (priority 100 vs 1), so arbitration yields; attempt 1 runs unmanaged
/// (priority 0), i.e. the eager default: it finalizes the older InPrep
/// descriptor as aborted and commits.
struct YieldThenEagerCM : medley::ContentionManager {
  const char* name() const override { return "YieldThenEager"; }
  void onAttemptStart(medley::Desc& d, std::uint64_t attempt) override {
    d.set_priority(attempt == 0 ? 100 : 0);
  }
  void onFinish(medley::Desc& d, bool) override { d.set_priority(0); }
};

}  // namespace

TEST(TxTrace, PinnedConflictAbortRetryCommitSequence) {
  TxManager mgr;
  obs::TraceRing ring(64);
  U64Obj a(5);

  h::ScheduleDriver d;
  // t0: the OLDER pinned transaction — begins, stamps the oldest priority,
  // installs its descriptor on `a`, and stays InPrep across t1's run.
  d.add_thread({
      [&] {
        mgr.txBegin();
        mgr.my_desc()->set_priority(1);
        auto v = a.nbtcLoad();
        EXPECT_TRUE(a.nbtcCAS(v, v + 1, true, true));
      },
      [&] {
        // t1's second attempt finalized us as aborted.
        EXPECT_THROW(mgr.txEnd(), TransactionAborted);
      },
  });
  // t1: a traced, bounded(2) executor run. Attempt 0 meets t0's InPrep
  // descriptor and yields (Conflict); attempt 1 goes eager and commits.
  d.add_thread({
      [&] {
        TxPolicy p = TxPolicy::bounded(2, std::make_shared<YieldThenEagerCM>());
        p.trace = &ring;
        TxExecutor exec{p};
        auto r = exec.execute(mgr, [&] {
          auto v = a.nbtcLoad();
          a.nbtcCAS(v, v + 100, true, true);
        });
        EXPECT_TRUE(r.committed());
        EXPECT_EQ(r.stats.conflict_aborts, 1u);
        EXPECT_EQ(r.stats.retries, 1u);
      },
  });
  d.run({0, 1, 0});
  EXPECT_EQ(a.load(), 105u);

  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 8u) << ring.dump_text();
  using TE = obs::TraceEvent;
  const TE expected_kinds[] = {TE::kBegin,     TE::kAttempt,
                               TE::kArbitrationYield, TE::kAbort,
                               TE::kCMBackoff, TE::kRetry,
                               TE::kAttempt,   TE::kCommit};
  for (std::size_t i = 0; i < 8; i++) {
    EXPECT_EQ(events[i].kind, expected_kinds[i])
        << "event " << i << ":\n" << ring.dump_text();
  }
  const auto conflict = static_cast<std::uint8_t>(AbortReason::Conflict);
  EXPECT_EQ(events[1].aux, 0u);        // attempt 0
  EXPECT_EQ(events[3].arg, conflict);  // abort{reason=conflict}
  EXPECT_EQ(events[3].aux, 0u);
  EXPECT_EQ(events[4].arg, conflict);  // CM backoff after that abort
  EXPECT_EQ(events[5].aux, 1u);        // retry into attempt 1
  EXPECT_EQ(events[6].aux, 1u);        // attempt 1
  EXPECT_EQ(events[7].aux, 2u);        // committed on the 2nd attempt
}

// ---------------------------------------------------------------------
// Per-thread slot lifecycle: hundreds of short-lived threads.

TEST(PerThreadSlots, ThreadChurnKeepsAggregatesExact) {
  ms::StoreStats stats;
  TxManager mgr;
  TxExecutor exec;
  constexpr int kChurn = 2 * mu::ThreadRegistry::kMaxThreads;  // 512 births
  for (int i = 0; i < kChurn; i++) {
    std::thread([&] {
      medley::TxStats t;
      t.commits = 1;
      t.conflict_aborts = 2;
      stats.record(t);
      stats.note_feed_push(1);
      // The TxManager slots share the same lifecycle helper: every one of
      // the short-lived threads is billed a commit.
      EXPECT_TRUE(exec.execute(mgr, [] {}).committed());
    }).join();
  }
  const auto s = stats.aggregate();
  EXPECT_EQ(s.commits, static_cast<std::uint64_t>(kChurn));
  EXPECT_EQ(s.conflict_aborts, static_cast<std::uint64_t>(2 * kChurn));
  EXPECT_EQ(s.feed_pushed, static_cast<std::uint64_t>(kChurn));
  EXPECT_EQ(mgr.stats().commits, static_cast<std::uint64_t>(kChurn));
  // Leases were recycled: the registry high-water mark stays far below
  // one id per birth (exhaustion would deadlock acquire_slot instead).
  EXPECT_LT(mu::ThreadRegistry::max_tid(), mu::ThreadRegistry::kMaxThreads);
}

// ---------------------------------------------------------------------
// Store-level end-to-end: counters, gauges, summaries, trace — and the
// CI exposition producer (MEDLEY_METRICS_OUT).

TEST(StoreObs, EndToEndDumpMetricsAndTrace) {
  TxManager mgr;
  ms::StoreConfig cfg{/*buckets=*/1u << 10, /*feed_enabled=*/true};
  cfg.metrics = true;
  cfg.trace_capacity = 1024;
  ms::MedleyStore<std::uint64_t, std::uint64_t> store(&mgr, cfg);

  constexpr int kThreads = 4, kKeys = 64;
  run_threads(kThreads, [&](int t) {
    for (std::uint64_t i = 1; i <= kKeys; i++) {
      const std::uint64_t k = static_cast<std::uint64_t>(t) * kKeys + i;
      store.put(k, k);
      store.get(k);
      store.read_modify_write(k, [](const std::optional<std::uint64_t>& c) {
        return std::optional<std::uint64_t>(c.value_or(0) + 1);
      });
      if (i % 4 == 0) store.del(k);
      if (i % 8 == 0) store.scan(1, 8);
    }
    store.poll_feed(32);
  });

  // Exact counter values through the registry handles (registration is
  // idempotent: same name+labels yields the live series).
  auto reg = store.metrics_registry();
  ASSERT_TRUE(reg != nullptr);
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "put"}}).value(),
            static_cast<std::uint64_t>(kThreads * kKeys));
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "get"}}).value(),
            static_cast<std::uint64_t>(kThreads * kKeys));
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "rmw"}}).value(),
            static_cast<std::uint64_t>(kThreads * kKeys));
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "del"}}).value(),
            static_cast<std::uint64_t>(kThreads * (kKeys / 4)));

  const std::string text = store.dump_metrics();
  for (const char* family :
       {"medley_store_ops_total", "medley_store_op_latency_ns",
        "medley_store_op_attempts", "medley_store_aborts_total",
        "medley_store_keys", "medley_store_feed_depth"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family), std::string::npos)
        << "family missing: " << family;
  }
  EXPECT_NE(text.find("medley_store_op_latency_ns_count{op=\"put\""),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.999\""), std::string::npos);
  // The keys gauge reflects committed inserts minus committed deletes.
  const auto agg = store.stats();
  EXPECT_EQ(agg.key_count(),
            static_cast<std::uint64_t>(kThreads * (kKeys - kKeys / 4)));

  const std::string json = store.dump_metrics_json();
  EXPECT_NE(json.find("medley_store_ops_total"), std::string::npos);

  // Lifecycle tracing rode along on the same transactions.
  ASSERT_TRUE(store.trace_ring() != nullptr);
  const auto events = store.trace_ring()->dump();
  EXPECT_FALSE(events.empty());
  bool saw_commit = false;
  for (const auto& e : events) {
    if (e.kind == obs::TraceEvent::kCommit) saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_NE(store.dump_trace().find("commit"), std::string::npos);

  // CI hook: persist the exposition for tools/check_metrics.py (the TSAN
  // job points MEDLEY_METRICS_OUT at a temp file and validates it).
  if (const char* out = std::getenv("MEDLEY_METRICS_OUT")) {
    std::ofstream f(out);
    f << text;
  }
}

TEST(StoreObs, MetricsOffByDefaultAndRoFallbackCounted) {
  TxManager mgr;
  ms::StoreConfig off{/*buckets=*/1u << 8, /*feed_enabled=*/false};
  ms::MedleyStore<std::uint64_t, std::uint64_t> plain(&mgr, off);
  plain.put(1, 1);
  EXPECT_TRUE(plain.dump_metrics().empty());
  EXPECT_TRUE(plain.metrics_registry() == nullptr);
  EXPECT_TRUE(plain.trace_ring() == nullptr);

  // Metrics on: a get on a quiescent store commits on the snapshot path;
  // no write fallback is billed.
  TxManager mgr2;
  ms::StoreConfig cfg{/*buckets=*/1u << 8, /*feed_enabled=*/false};
  cfg.metrics = true;
  ms::MedleyStore<std::uint64_t, std::uint64_t> store(&mgr2, cfg);
  store.put(7, 70);
  EXPECT_EQ(store.get(7), std::optional<std::uint64_t>(70));
  auto reg = store.metrics_registry();
  EXPECT_EQ(
      reg->counter("medley_store_ro_fallbacks_total", "", {{"kind", "write"}})
          .value(),
      0u);
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "get"}}).value(),
            1u);
}

TEST(StoreObs, SamplingThinsHistogramsButCountersStayExact) {
  // shift 0: every op lands in the latency histogram (exact-tail mode).
  TxManager mgr;
  ms::StoreConfig every{/*buckets=*/1u << 8, /*feed_enabled=*/false};
  every.metrics = true;
  every.metrics_sample_shift = 0;
  ms::MedleyStore<std::uint64_t, std::uint64_t> full(&mgr, every);
  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; i++) full.put(i, i);
  auto reg = full.metrics_registry();
  EXPECT_EQ(reg->counter("medley_store_ops_total", "", {{"op", "put"}}).value(),
            kOps);
  EXPECT_EQ(reg->histogram("medley_store_op_latency_ns", "", {{"op", "put"}})
                .snapshot()
                .count,
            kOps);

  // The shipping default (1/64) thins the sample stream — strictly fewer
  // records than ops — while the op counter stays exact. (The per-thread
  // sampling counter is process-wide round-robin, so the exact sample
  // count depends on prior activity; only the bound is contractual.)
  TxManager mgr2;
  ms::StoreConfig sampled{/*buckets=*/1u << 8, /*feed_enabled=*/false};
  sampled.metrics = true;
  ms::MedleyStore<std::uint64_t, std::uint64_t> thin(&mgr2, sampled);
  for (std::uint64_t i = 0; i < kOps; i++) thin.put(i, i);
  auto reg2 = thin.metrics_registry();
  EXPECT_EQ(
      reg2->counter("medley_store_ops_total", "", {{"op", "put"}}).value(),
      kOps);
  const auto snap =
      reg2->histogram("medley_store_op_latency_ns", "", {{"op", "put"}})
          .snapshot();
  EXPECT_LE(snap.count, kOps / 64 + 1);
}
