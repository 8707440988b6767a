// In-process workloads over one store: kv-update and kv-scan.
//
// kv-update  3 pinned threads, 100k preloaded keys, 50% get / 50% put of
//            an existing key (zipfian 0.99), each put followed by a
//            poll_feed(2) tap.
// kv-scan    3 pinned threads, 1M preloaded keys, 95% scan (start zipfian
//            0.99, length uniform 1..100) / 5% put of a fresh key above
//            the preload, each put followed by the same tap.
//
// The untraced run times a MedleyStore with the default StoreConfig. The
// traced run times TimedStore: the same BasicMedleyStore composition over
// thin timing wrappers of MichaelHashTable and FraserSkiplist, so the ds
// calls made inside the store's transactions become child spans of the
// store call.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "ds/fraser_skiplist.hpp"
#include "ds/michael_hashtable.hpp"
#include "smr/ebr.hpp"
#include "store/store.hpp"

namespace perfbench {
namespace {

namespace ms = medley::store;
using Key = std::uint64_t;
using Val = std::uint64_t;

constexpr int kThreads = 3;
constexpr int kLoaders = 1;
constexpr double kTheta = 0.99;
constexpr std::size_t kMaxScanLen = 100;
constexpr std::size_t kTapDrain = 2;
constexpr std::size_t kPreloadBatch = 32;
/// Traced phase: one client op in kSampleEvery is traced in full.
constexpr std::uint64_t kSampleEvery = 8;

class TimedHash : public medley::ds::MichaelHashTable<Key, Val> {
  using Base = medley::ds::MichaelHashTable<Key, Val>;

 public:
  using Base::Base;
  std::optional<Val> get(const Key& k) {
    SpanScope s(kSpanHashGet);
    return Base::get(k);
  }
  std::optional<Val> put(const Key& k, const Val& v) {
    SpanScope s(kSpanHashPut);
    return Base::put(k, v);
  }
  std::optional<Val> remove(const Key& k) {
    SpanScope s(kSpanHashRemove);
    return Base::remove(k);
  }
};

class TimedSkiplist : public medley::ds::FraserSkiplist<Key, Val> {
  using Base = medley::ds::FraserSkiplist<Key, Val>;

 public:
  using Base::Base;
  bool insert(const Key& k, const Val& v) {
    SpanScope s(kSpanSkipInsert);
    return Base::insert(k, v);
  }
  std::optional<Val> remove(const Key& k) {
    SpanScope s(kSpanSkipRemove);
    return Base::remove(k);
  }
  std::vector<std::pair<Key, Val>> scan(const Key& lo, std::size_t limit) {
    SpanScope s(kSpanSkipScan);
    return Base::scan(lo, limit);
  }
};

/// MedleyStore's composition over the timing wrappers.
class TimedStore
    : public ms::BasicMedleyStore<Key, Val, TimedHash, TimedSkiplist> {
  using Base = ms::BasicMedleyStore<Key, Val, TimedHash, TimedSkiplist>;

 public:
  TimedStore(medley::TxManager* mgr, ms::StoreConfig cfg = {})
      : Base(mgr, &primary_, &secondary_, cfg),
        primary_(mgr, cfg.buckets),
        secondary_(mgr) {}

 private:
  TimedHash primary_;
  TimedSkiplist secondary_;
};

struct Spec {
  bool scan_mix;
  std::uint64_t keys;  // preloaded keys are 1..keys
  int setups;          // setup_s is the median of this many builds
};

/// A store and its manager; kv is declared last, so destroyed first.
template <typename Store>
struct Instance {
  std::unique_ptr<medley::TxManager> mgr;
  std::unique_ptr<Store> kv;
};

/// Build a store and preload keys 1..n with tagged values, the three
/// loader threads pinned like the workload threads, then drain the feed.
template <typename Store>
void build(Instance<Store>& in, std::uint64_t n) {
  in.kv.reset();
  in.mgr = std::make_unique<medley::TxManager>();
  in.kv = std::make_unique<Store>(in.mgr.get());
  Store& kv = *in.kv;
  std::vector<std::thread> loaders;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kLoaders; t++) {
    loaders.emplace_back([&, t] {
      pin_to(1 + t);
      try {
        const std::uint64_t lo = 1 + n * t / kLoaders;
        const std::uint64_t hi = 1 + n * (t + 1) / kLoaders;
        std::vector<std::pair<Key, Val>> batch;
        for (std::uint64_t k = lo; k < hi; k += kPreloadBatch) {
          batch.clear();
          for (std::uint64_t j = k; j < std::min(hi, k + kPreloadBatch); j++) {
            batch.emplace_back(j, tag_value(j, 0));
          }
          kv.multi_put(batch);
          kv.poll_feed(kPreloadBatch);
        }
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& th : loaders) th.join();
  if (failed) throw std::runtime_error("preload failed");
  while (!kv.poll_feed(ms::kMaxFeedDrainPerTx).empty()) {
  }
}

struct ThreadOut {
  Samples rd, wr;
  Counts done;  // ops completed without throwing, per window
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t puts = 0;  // committed puts (each appends one feed entry)
  std::size_t limbo = 0;
  std::string first_fail;

  void fail(std::string what) {
    if (failed++ == 0) first_fail = std::move(what);
  }
};

struct Phase {
  double secs = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t puts = 0;
  std::size_t limbo_max = 0;
  std::string first_fail;
  std::vector<ThreadOut> outs;

  std::vector<const Counts*> counts() const {
    std::vector<const Counts*> c;
    for (const ThreadOut& o : outs) c.push_back(&o.done);
    return c;
  }
  double rate() const { return windowed_rate(counts(), secs); }
  std::vector<const Samples*> reads() const {
    std::vector<const Samples*> v;
    for (const ThreadOut& o : outs) v.push_back(&o.rd);
    return v;
  }
  std::vector<const Samples*> writes() const {
    std::vector<const Samples*> v;
    for (const ThreadOut& o : outs) v.push_back(&o.wr);
    return v;
  }
};

/// One timed closed-loop phase over `kv`. With `traced`, every
/// kSampleEvery-th op of each thread records its spans.
template <typename Store>
Phase run_phase(Store& kv, const Spec& spec, const Options& opt,
                const std::vector<std::uint64_t>& perm,
                std::atomic<std::uint64_t>& next_fresh, double secs,
                bool traced, std::uint64_t phase_salt) {
  std::atomic<int> ready{0};
  PhaseClock clock;
  std::vector<ThreadOut> outs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      pin_to(1 + t);
      ThreadOut& o = outs[t];
      const std::uint64_t s = opt.seed * 1000003 + phase_salt * 131 + t;
      medley::util::ZipfGenerator zipf(spec.keys, kTheta, s);
      medley::util::Xoshiro256 rng(s ^ 0xabcdef);
      // Size the per-window records now, not while timing.
      const std::uint32_t nw = PhaseClock::full_windows(secs) + 1;
      o.rd.windows.resize(nw);
      o.wr.windows.resize(nw);
      o.done.n.resize(nw);
      Tracer::Local& tl = Tracer::local();
      std::uint64_t version = 1;
      ready++;
      while (!clock.go.load(std::memory_order_acquire)) {
      }
      while (!clock.stop.load(std::memory_order_relaxed)) {
        const std::uint32_t w = clock.window.load(std::memory_order_relaxed);
        const std::uint64_t seq = o.ops++;
        if (traced) {
          tl.on = seq % kSampleEvery == 0;
          tl.op = (static_cast<std::uint64_t>(t + 1) << 40) | seq;
        }
        bool did_put = false;
        try {
          if (!spec.scan_mix) {
            const Key k = perm[zipf.next()] + 1;
            if (rng.next() & 1) {
              const std::uint64_t t0 = now_ns();
              std::optional<Val> v;
              {
                SpanScope sp(kSpanStoreGet);
                v = kv.get(k);
              }
              o.rd.add(w, now_ns() - t0);
              if (!v || !tagged_for(*v, k)) {
                o.fail("get(" + std::to_string(k) + ") returned " +
                       (v ? "a value tagged " + std::to_string(*v >> kTagShift)
                          : std::string("nothing")));
              }
            } else {
              const std::uint64_t t0 = now_ns();
              std::optional<Val> old;
              {
                SpanScope sp(kSpanStorePut);
                old = kv.put(k, tag_value(k, version++));
              }
              o.wr.add(w, now_ns() - t0);
              did_put = true;
              if (!old || !tagged_for(*old, k)) {
                o.fail("put(" + std::to_string(k) +
                       ") did not return the key's previous value");
              }
            }
          } else if (rng.next_bounded(100) < 5) {
            const Key k = next_fresh.fetch_add(1, std::memory_order_relaxed);
            const std::uint64_t t0 = now_ns();
            std::optional<Val> old;
            {
              SpanScope sp(kSpanStorePut);
              old = kv.put(k, tag_value(k, 1));
            }
            o.wr.add(w, now_ns() - t0);
            did_put = true;
            if (old) o.fail("fresh put(" + std::to_string(k) + ") replaced");
          } else {
            const Key lo = perm[zipf.next()] + 1;
            const std::size_t len = 1 + rng.next_bounded(kMaxScanLen);
            const std::uint64_t t0 = now_ns();
            std::vector<std::pair<Key, Val>> res;
            {
              SpanScope sp(kSpanStoreScan);
              res = kv.scan(lo, len);
            }
            o.rd.add(w, now_ns() - t0);
            // Keys 1..spec.keys are never deleted, so a window inside them
            // must come back exactly; past them, fresh keys may or may not
            // be visible yet, but order, bounds and tags must hold.
            bool ok = res.size() <= len && (!res.empty() || lo > spec.keys);
            Key prev = lo - 1;
            for (const auto& [k, v] : res) {
              if (k <= prev || !tagged_for(v, k) ||
                  (k <= spec.keys && k != prev + 1)) {
                ok = false;
                break;
              }
              prev = k;
            }
            if (lo + len - 1 <= spec.keys && res.size() != len) ok = false;
            if (!ok) o.fail("scan(" + std::to_string(lo) + ", " +
                            std::to_string(len) + ") returned a bad window");
          }
          if (did_put) {
            o.puts++;
            SpanScope sp(kSpanStorePollFeed);
            kv.poll_feed(kTapDrain);
          }
          o.done.add(w);
        } catch (const std::exception& e) {
          o.fail(std::string("store call threw: ") + e.what());
        }
        tl.on = false;
      }
      o.limbo = medley::smr::EBR::instance().limbo_size();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  Phase ph;
  ph.secs = clock.run(secs);
  for (auto& th : threads) th.join();
  for (ThreadOut& o : outs) {
    ph.ops += o.ops;
    ph.failed += o.failed;
    ph.puts += o.puts;
    ph.limbo_max = std::max(ph.limbo_max, o.limbo);
    if (ph.first_fail.empty()) ph.first_fail = o.first_fail;
  }
  ph.outs = std::move(outs);
  return ph;
}

void fold_phase(Result& r, const Phase& ph) {
  r.attempted += ph.ops;
  if (ph.failed > 0) {
    r.failed += ph.failed;
    r.correct = false;
    r.note("check failed: " + ph.first_fail + " (" +
           std::to_string(ph.failed) + " ops failed)");
  }
}

template <typename Store>
std::uint64_t plant_if_asked(Store& kv, const Options& opt,
                             const std::vector<std::uint64_t>& perm) {
  if (!opt.plant_wrong_read) return 0;
  const Key k = perm[0] + 1;  // the hottest key
  kv.put(k, tag_value(k + 1, 0));
  kv.poll_feed(kTapDrain);
  return 1;
}

Result run_untraced(const Options& opt, const Spec& spec,
                    const std::vector<std::uint64_t>& perm) {
  using Store = ms::MedleyStore<Key, Val>;
  Result r;
  Instance<Store> in;
  std::vector<double> setups;
  for (int i = 0; i < spec.setups; i++) {
    const std::uint64_t t0 = now_ns();
    build(in, spec.keys);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Store& kv = *in.kv;
  const std::uint64_t planted = plant_if_asked(kv, opt, perm);
  std::atomic<std::uint64_t> next_fresh{spec.keys + 1};
  Phase ph = run_phase(kv, spec, opt, perm, next_fresh, opt.seconds, false, 0);
  fold_phase(r, ph);
  r.set("ops_per_s", ph.rate(), "1/s");
  r.note("ops_per_s: " + rate_spread(ph.counts(), ph.secs));
  report_latency(r, "read", spec.scan_mix ? "scan" : "get", ph.reads(),
                 opt.seconds);
  report_latency(r, "write",
                 spec.scan_mix ? "put of a fresh key" : "put of an existing key",
                 ph.writes(), opt.seconds);
  r.set("setup_s", median(setups), "s");
  r.note("setup_s: median of builds taking " + list_of(setups) + " s");
  const std::uint64_t fresh = next_fresh.load() - spec.keys - 1;
  audit_store(kv, r, spec.keys + fresh, spec.keys + ph.puts + planted);
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

Result run_traced(const Options& opt, const Spec& spec,
                  const std::vector<std::uint64_t>& perm) {
  Result r;
  run_ladder(r);
  run_wire_layers(r, opt);
  Instance<TimedStore> in;
  build(in, spec.keys);
  TimedStore& kv = *in.kv;
  const std::uint64_t planted = plant_if_asked(kv, opt, perm);
  std::atomic<std::uint64_t> next_fresh{spec.keys + 1};
  const double half = opt.seconds / 2;
  Phase plain = run_phase(kv, spec, opt, perm, next_fresh, half, false, 1);
  fold_phase(r, plain);
  Tracer::instance().clear();
  const auto st0 = kv.stats();
  Phase tr = run_phase(kv, spec, opt, perm, next_fresh, half, true, 2);
  fold_phase(r, tr);
  const auto st1 = kv.stats();
  r.set("store.feed_depth_end", static_cast<double>(kv.feed_depth()),
        "count");

  SpanStats ss = SpanStats::collect();
  std::string idle;
  for (SpanName n : {kSpanHashGet, kSpanHashPut, kSpanSkipInsert,
                     kSpanSkipRemove, kSpanSkipScan, kSpanStoreGet,
                     kSpanStorePut, kSpanStoreScan}) {
    if (ss.dur[n].empty()) idle += std::string(" ") + span_name(n);
  }
  if (!idle.empty()) r.note("not called by this workload (reads 0):" + idle);
  auto p50 = [&](SpanName n) { return ss.p50(n); };
  r.set("ds.hash.get_ns", p50(kSpanHashGet), "ns");
  r.set("ds.hash.put_ns", p50(kSpanHashPut), "ns");
  r.set("ds.skiplist.insert_ns", p50(kSpanSkipInsert), "ns");
  r.set("ds.skiplist.remove_ns", p50(kSpanSkipRemove), "ns");
  r.set("ds.skiplist.scan_ns", p50(kSpanSkipScan), "ns");
  r.set("store.self_ns.get", ss.self_p50(kSpanStoreGet), "ns");
  r.set("store.self_ns.put", ss.self_p50(kSpanStorePut), "ns");
  r.set("store.self_ns.scan", ss.self_p50(kSpanStoreScan), "ns");
  r.set("store.poll_feed_ns", p50(kSpanStorePollFeed), "ns");

  const double commits = static_cast<double>(st1.commits - st0.commits);
  const double aborts = static_cast<double>(st1.aborts() - st0.aborts());
  r.set("exec.attempts_per_op", ratio(commits + aborts, commits), "ratio");
  r.set("exec.aborts_per_op.conflict",
        ratio(static_cast<double>(st1.conflict_aborts - st0.conflict_aborts),
              commits),
        "ratio");
  r.set("exec.aborts_per_op.validation",
        ratio(static_cast<double>(st1.validation_aborts -
                                  st0.validation_aborts),
              commits),
        "ratio");
  r.set("exec.aborts_per_op.capacity",
        ratio(static_cast<double>(st1.capacity_aborts - st0.capacity_aborts),
              commits),
        "ratio");
  r.set("exec.commit_ratio", ratio(commits, commits + aborts), "ratio");
  // Read-only reads are off in the default StoreConfig, so no read takes
  // the snapshot path and none can fall back.
  r.set("ro.fallbacks_per_read", 0, "ratio");
  r.set("smr.limbo_max", static_cast<double>(tr.limbo_max), "count");
  const double untraced = plain.rate();
  const double traced = tr.rate();
  r.set("trace.overhead_frac", 1.0 - ratio(traced, untraced), "ratio");
  r.note("untraced phase " + std::to_string(untraced) +
         " ops/s, traced phase " + std::to_string(traced) +
         " ops/s (1 op in " + std::to_string(kSampleEvery) + " traced)");
  if (!opt.span_dir.empty()) {
    const std::string path = opt.span_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".csv";
    dump_spans(path, 20000);
    r.note("span dump: " + path);
  }

  const std::uint64_t fresh = next_fresh.load() - spec.keys - 1;
  audit_store(kv, r, spec.keys + fresh,
        spec.keys + plain.puts + tr.puts + planted);
  return r;
}

}  // namespace

Result run_kv(const Options& opt) {
  const Spec spec = opt.workload == "kv-scan" ? Spec{true, 1'000'000, 3}
                                              : Spec{false, 100'000, 9};
  const std::vector<std::uint64_t> perm = key_permutation(spec.keys);
  Result r = opt.trace ? run_traced(opt, spec, perm)
                       : run_untraced(opt, spec, perm);
  r.note("placement: workload threads pinned to cpus 1,2,3 (mod nproc); "
         "main thread unpinned and idle while timing");
  return r;
}

}  // namespace perfbench
