// YCSB-style serving-layer workloads over MedleyStore (ROADMAP "new
// workloads"): the first benchmark family driving the composed hot path
// (hash primary + ordered secondary + change feed, one transaction per
// store operation).
//
// Workloads (the YCSB core suite; zipfian theta 0.99):
//   A update-heavy   50% read / 50% put
//   B read-mostly    95% read /  5% put
//   C read-only     100% read
//   D read-latest    95% read skewed to recent keys / 5% insert (new keys)
//   E short-ranges   95% scan (length 1..64) / 5% insert
//   F read-modify-write  50% read / 50% atomic rmw
//
// Systems:
//   MedleyStore         — feed enabled; every mutator drains up to 2 feed
//                         entries inline after each mutation (a replication
//                         tap that keeps up), so the feed's totally ordered
//                         tail contention is fully priced in;
//   MedleyStore-nofeed  — identical but feed disabled: the ablation
//                         isolating what the ordered change feed costs;
//   PersistentMedleyStore — txMontage indexes (epoch advancer at 10 ms):
//                         the durability premium on the same workloads;
//   ShardedMedleyStore-{1,4,8} — hash-partitioned shards, one TxManager +
//                         feed per shard under a shared TxDomain: the
//                         contention ablation for the sharding axis
//                         (shards:1 prices the sharded dispatch itself).
//                         Rows carry per-shard + aggregate abort/retry
//                         counters (aborts_shard<i> etc., absolute since
//                         setup) next to the per-thread exact rates;
//   RangeShardedMedleyStore-{4,8} — contiguous key-range shards
//                         (boundaries seeded by sampling the preloaded
//                         keys): scans descend only into the shards their
//                         window intersects, so E is the headline and A-D
//                         confirm point ops don't regress vs the hash
//                         store. Rows additionally carry keys_shard<i>
//                         (commit-exact per-shard key counts), making the
//                         insert-tail skew of workloads D/E — fresh keys
//                         all land in the LAST range shard — observable
//                         in the recorded JSON (BENCH_ycsb_range.json);
//   ShardedMedleyStore-{1,4,8}-comb / RangeShardedMedleyStore-4-comb —
//                         identical stores with StoreConfig::combining on:
//                         top-level point mutations are group-committed in
//                         flat-combining batches (one descriptor + one
//                         commit CAS per batch, src/core/combiner.hpp).
//                         Registered for the write-bearing mixes A/B — the
//                         group-commit ablation (BENCH_ycsb_combining.json);
//                         rows carry combined_{ops,batches}, whose ratio is
//                         the realized amortization factor;
//   RawHash             — an untracked MichaelHashTable probed outside any
//                         transaction: the floor a YCSB-C read can ever
//                         reach (B/C only; the store rows read through
//                         read-only snapshot transactions).
//
// Output is google-benchmark JSON in the same shape as the figure benches:
// items_per_second = committed store operations/s; aborts_per_tx and
// retries_per_tx from exact per-thread StoreStats deltas.
//
// Scale: default is the CI scale; MEDLEY_PAPER=1 for paper scale;
// MEDLEY_YCSB_SMOKE=1 for the CI smoke step (tiny key space, 2 threads).
//
// Observability: rows always carry per-reason abort rates
// (aborts_{conflict,validation,capacity,user}_per_tx, exact per-thread
// StoreStats deltas). MEDLEY_YCSB_METRICS=1 additionally turns on
// StoreConfig::metrics in every store adapter (the overhead A/B knob for
// the paired metrics-on/off acceptance runs), and with MEDLEY_METRICS_OUT
// set, each store's Prometheus exposition is written there at teardown
// (last store wins — the file is a valid single exposition either way),
// which is what CI pipes through tools/check_metrics.py.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "montage/txmontage.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

namespace mb = medley::bench;
namespace ms = medley::store;
using DramStoreU64 = ms::MedleyStore<std::uint64_t, std::uint64_t>;

namespace {

/// MEDLEY_YCSB_METRICS=1: run every store with the metrics registry on.
bool ycsb_metrics_on() {
  static const bool on = [] {
    const char* v = std::getenv("MEDLEY_YCSB_METRICS");
    return v != nullptr && v[0] == '1';
  }();
  return on;
}

/// With MEDLEY_METRICS_OUT set, persist a store's exposition at teardown.
void maybe_dump_metrics(const std::string& text) {
  const char* path = std::getenv("MEDLEY_METRICS_OUT");
  if (path == nullptr || text.empty()) return;
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

constexpr double kZipfTheta = 0.99;     // the YCSB default
constexpr std::uint64_t kLatestWindow = 1024;  // D's "recent keys" horizon
constexpr std::uint64_t kMaxScanLen = 64;

struct YcsbScale {
  std::size_t records;  // preloaded keys 1..records (dense)
  double min_time;
  std::vector<int> threads;

  static const YcsbScale& get() {
    static YcsbScale sc = [] {
      const char* smoke = std::getenv("MEDLEY_YCSB_SMOKE");
      if (smoke != nullptr && smoke[0] == '1') {
        return YcsbScale{512, 0.1, {2}};
      }
      const char* paper = std::getenv("MEDLEY_PAPER");
      if (paper != nullptr && paper[0] == '1') {
        return YcsbScale{500'000, 3.0, {1, 2, 4, 8, 16, 40, 80}};
      }
      return YcsbScale{20'000, 0.15, {1, 2, 4, 8}};
    }();
    return sc;
  }
};

struct Mix {
  const char* label;
  int read_w, put_w, ins_w, scan_w, rmw_w;  // sum to 100
  bool latest;  // reads skew to recently inserted keys (workload D)
};

const std::vector<Mix>& mixes() {
  static const std::vector<Mix> m = {
      {"A", 50, 50, 0, 0, 0, false}, {"B", 95, 5, 0, 0, 0, false},
      {"C", 100, 0, 0, 0, 0, false}, {"D", 95, 0, 5, 0, 0, true},
      {"E", 0, 0, 5, 95, 0, false},  {"F", 50, 0, 0, 0, 50, false},
  };
  return m;
}

/// Per-thread key choosers; insert counters are shared adapter state.
struct KeyDist {
  medley::util::ZipfGenerator zipf;    // rank -> preloaded key
  medley::util::ZipfGenerator recent;  // offset back from newest key
  std::atomic<std::uint64_t>* next_insert;
  std::atomic<std::uint64_t>* max_key;
  std::uint64_t records;
  // 0 = unbounded fresh keys (DRAM). Nonzero bounds the fresh-key window:
  // inserts past records+wrap cycle back and overwrite the oldest fresh
  // keys, so a persistent store's live payload count stays bounded — an
  // unbounded D/E run would otherwise fill the region with never-retired
  // payloads and spin in Capacity retries that nothing can free.
  std::uint64_t insert_wrap;

  std::uint64_t pick(medley::util::Xoshiro256& rng, const Mix& mix) {
    (void)rng;
    if (mix.latest) {
      const std::uint64_t hi = max_key->load(std::memory_order_relaxed);
      const std::uint64_t back = recent.next();
      return back >= hi ? 1 : hi - back;
    }
    return zipf.next() + 1;
  }

  std::uint64_t fresh() {
    std::uint64_t k = next_insert->fetch_add(1, std::memory_order_relaxed);
    if (insert_wrap != 0) {
      k = records + 1 + (k - records - 1) % insert_wrap;
    }
    // Monotonic max (racy fetch_max by CAS; exactness is irrelevant).
    std::uint64_t m = max_key->load(std::memory_order_relaxed);
    while (m < k && !max_key->compare_exchange_weak(
                        m, k, std::memory_order_relaxed)) {
    }
    return k;
  }
};

/// One YCSB operation against any store exposing the MedleyStore API.
/// Mutators drain up to 2 feed entries inline after each mutation (a
/// replication tap that keeps up). A sharded store taps the SHARD it just
/// wrote (poll_feed_local): per-shard change streams are the sharded
/// replication pattern — the totally ordered merged poll_feed() exists
/// for consumers that need it, but putting it on every mutation would
/// reintroduce exactly the global serialization point sharding removes.
template <typename StoreT>
void ycsb_op(StoreT& store, bool feed_on, medley::util::Xoshiro256& rng,
             KeyDist& keys, const Mix& mix) {
  const auto x = static_cast<int>(rng.next_bounded(100));
  std::uint64_t mutated = 0;
  if (x < mix.read_w) {
    benchmark::DoNotOptimize(store.get(keys.pick(rng, mix)));
    return;
  }
  if (x < mix.read_w + mix.put_w) {
    mutated = keys.pick(rng, mix);
    store.put(mutated, rng.next());
  } else if (x < mix.read_w + mix.put_w + mix.ins_w) {
    mutated = keys.fresh();
    store.put(mutated, mutated);
  } else if (x < mix.read_w + mix.put_w + mix.ins_w + mix.scan_w) {
    benchmark::DoNotOptimize(
        store.scan(keys.pick(rng, mix), 1 + rng.next_bounded(kMaxScanLen)));
    return;
  } else {
    mutated = keys.pick(rng, mix);
    store.read_modify_write(
        mutated, [](const std::optional<std::uint64_t>& c) {
          return std::optional<std::uint64_t>(c.value_or(0) + 1);
        });
  }
  if (feed_on) {
    if constexpr (requires { store.poll_feed_local(mutated, 2u); }) {
      store.poll_feed_local(mutated, 2);
    } else {
      store.poll_feed(2);
    }
  }
}

template <bool kFeed>
struct MedleyStoreAdapter {
  static const char* name() {
    return kFeed ? "MedleyStore" : "MedleyStore-nofeed";
  }
  static constexpr std::uint64_t kInsertWrap = 0;  // DRAM: unbounded

  medley::TxManager mgr;
  std::unique_ptr<DramStoreU64> store;
  std::atomic<std::uint64_t> next_insert{0}, max_key{0};

  void setup(const YcsbScale& sc) {
    ms::StoreConfig cfg{/*buckets=*/1u << 16, /*feed_enabled=*/kFeed};
    cfg.metrics = ycsb_metrics_on();
    store = std::make_unique<DramStoreU64>(&mgr, cfg);
    for (std::uint64_t k = 1; k <= sc.records; k++) store->put(k, k);
    if (kFeed) {
      while (!store->poll_feed(1024).empty()) {  // preload is not traffic
      }
    }
    next_insert.store(sc.records + 1);
    max_key.store(sc.records);
  }

  void op(medley::util::Xoshiro256& rng, KeyDist& keys, const Mix& mix) {
    ycsb_op(*store, kFeed, rng, keys, mix);
  }

  ms::StoreStats::Snapshot stats_mine() const { return store->stats_mine(); }
};

/// Per-shard + aggregate counters for the JSON row (absolute totals since
/// setup; the per-thread exact rates stay in aborts_per_tx). Shared by the
/// hash- and range-sharded adapters; keys_shard<i> is the commit-exact
/// per-shard key count — the partition-imbalance observable.
template <typename ShardedStore>
void emit_shard_counters(benchmark::State& state, const ShardedStore& store,
                         int nshards) {
  double agg_aborts = 0, agg_retries = 0;
  for (int i = 0; i < nshards; i++) {
    const auto st = store.stats_shard(static_cast<std::size_t>(i));
    state.counters["aborts_shard" + std::to_string(i)] =
        static_cast<double>(st.aborts());
    state.counters["retries_shard" + std::to_string(i)] =
        static_cast<double>(st.retries);
    state.counters["keys_shard" + std::to_string(i)] =
        static_cast<double>(st.key_count());
    agg_aborts += static_cast<double>(st.aborts());
    agg_retries += static_cast<double>(st.retries);
  }
  // Group-commit observables (absolute since setup, summed over shards):
  // combined_ops / combined_batches is the realized mean batch size — the
  // amortization factor actually achieved, next to the throughput it buys.
  if (store.combined_batches() > 0) {
    state.counters["combined_batches"] =
        static_cast<double>(store.combined_batches());
    state.counters["combined_ops"] =
        static_cast<double>(store.combined_ops());
  }
  const auto cross = store.stats_cross();
  state.counters["aborts_cross"] = static_cast<double>(cross.aborts());
  state.counters["aborts_agg"] =
      agg_aborts + static_cast<double>(cross.aborts());
  state.counters["retries_agg"] =
      agg_retries + static_cast<double>(cross.retries);
}

template <int kShards, bool kComb = false>
struct ShardedStoreAdapter {
  static const char* name() {
    if constexpr (kComb) {
      if constexpr (kShards == 1) return "ShardedMedleyStore-1-comb";
      if constexpr (kShards == 4) return "ShardedMedleyStore-4-comb";
      return "ShardedMedleyStore-8-comb";
    }
    if constexpr (kShards == 1) return "ShardedMedleyStore-1";
    if constexpr (kShards == 4) return "ShardedMedleyStore-4";
    return "ShardedMedleyStore-8";
  }
  static constexpr std::uint64_t kInsertWrap = 0;  // DRAM: unbounded

  using Sharded = ms::ShardedMedleyStore<std::uint64_t, std::uint64_t>;
  std::unique_ptr<Sharded> store;
  std::atomic<std::uint64_t> next_insert{0}, max_key{0};

  void setup(const YcsbScale& sc) {
    ms::StoreConfig cfg{/*buckets=*/1u << 16, /*feed_enabled=*/true};
    cfg.combining.enabled = kComb;  // default knobs: 64 slots, batch<=32
    cfg.metrics = ycsb_metrics_on();
    store = std::make_unique<Sharded>(kShards, cfg);
    for (std::uint64_t k = 1; k <= sc.records; k++) store->put(k, k);
    while (!store->poll_feed(1024).empty()) {  // preload is not traffic
    }
    next_insert.store(sc.records + 1);
    max_key.store(sc.records);
  }

  void op(medley::util::Xoshiro256& rng, KeyDist& keys, const Mix& mix) {
    ycsb_op(*store, /*feed_on=*/true, rng, keys, mix);
  }

  ms::StoreStats::Snapshot stats_mine() const { return store->stats_mine(); }

  void emit_counters(benchmark::State& state) const {
    emit_shard_counters(state, *store, kShards);
  }
};

template <int kShards, bool kComb = false>
struct RangeShardedStoreAdapter {
  static const char* name() {
    if constexpr (kComb) {
      if constexpr (kShards == 4) return "RangeShardedMedleyStore-4-comb";
      return "RangeShardedMedleyStore-8-comb";
    }
    if constexpr (kShards == 4) return "RangeShardedMedleyStore-4";
    return "RangeShardedMedleyStore-8";
  }
  static constexpr std::uint64_t kInsertWrap = 0;  // DRAM: unbounded

  using RangeSharded =
      ms::RangeShardedMedleyStore<std::uint64_t, std::uint64_t>;
  std::unique_ptr<RangeSharded> store;
  std::atomic<std::uint64_t> next_insert{0}, max_key{0};

  void setup(const YcsbScale& sc) {
    // Seeding-time splitter: boundaries from a ~4K-key sample of the
    // preloaded key set (equi-depth quantiles). Fresh inserts (D/E) land
    // past sc.records — i.e. in the LAST shard, range partitioning's
    // classic insert-tail hotspot; keys_shard<i> in the row records it.
    std::vector<std::uint64_t> seed;
    const std::uint64_t step = std::max<std::uint64_t>(sc.records / 4096, 1);
    for (std::uint64_t k = 1; k <= sc.records; k += step) seed.push_back(k);
    ms::StoreConfig cfg{/*buckets=*/1u << 16, /*feed_enabled=*/true};
    cfg.combining.enabled = kComb;  // default knobs: 64 slots, batch<=32
    cfg.metrics = ycsb_metrics_on();
    store = std::make_unique<RangeSharded>(kShards, seed, cfg);
    for (std::uint64_t k = 1; k <= sc.records; k++) store->put(k, k);
    while (!store->poll_feed(1024).empty()) {  // preload is not traffic
    }
    next_insert.store(sc.records + 1);
    max_key.store(sc.records);
  }

  void op(medley::util::Xoshiro256& rng, KeyDist& keys, const Mix& mix) {
    ycsb_op(*store, /*feed_on=*/true, rng, keys, mix);
  }

  ms::StoreStats::Snapshot stats_mine() const { return store->stats_mine(); }

  void emit_counters(benchmark::State& state) const {
    emit_shard_counters(state, *store, kShards);
  }
};

struct PersistentStoreAdapter {
  static const char* name() { return "PersistentMedleyStore"; }
  // Bound fresh-key inserts (workloads D/E) so live payloads stay within
  // the region: (records + kInsertWrap) * 2 slots worst case, well under
  // the capacity below, for any run length.
  static constexpr std::uint64_t kInsertWrap = 1u << 15;

  std::string path;
  std::unique_ptr<medley::montage::PRegion> region;
  std::unique_ptr<medley::montage::EpochSys> es;
  medley::TxManager mgr;
  std::unique_ptr<ms::PersistentMedleyStore> store;
  std::atomic<std::uint64_t> next_insert{0}, max_key{0};

  void setup(const YcsbScale& sc) {
    path = "/tmp/medley_bench_ycsb.img";
    std::remove(path.c_str());
    region = std::make_unique<medley::montage::PRegion>(
        path, sc.records * 4 + kInsertWrap * 2 + (1u << 17));
    es = std::make_unique<medley::montage::EpochSys>(region.get());
    es->attach(&mgr);
    ms::StoreConfig cfg{/*buckets=*/1u << 16, /*feed_enabled=*/true};
    cfg.metrics = ycsb_metrics_on();
    store = std::make_unique<ms::PersistentMedleyStore>(&mgr, es.get(),
                                                        /*sid=*/1, cfg);
    for (std::uint64_t k = 1; k <= sc.records; k++) store->put(k, k);
    while (!store->poll_feed(1024).empty()) {
    }
    next_insert.store(sc.records + 1);
    max_key.store(sc.records);
    es->start_advancer(10);
  }

  ~PersistentStoreAdapter() {
    if (es) es->stop_advancer();
    store.reset();
    es.reset();
    region.reset();
    std::remove(path.c_str());
  }

  void op(medley::util::Xoshiro256& rng, KeyDist& keys, const Mix& mix) {
    ycsb_op(*store, /*feed_on=*/true, rng, keys, mix);
  }

  ms::StoreStats::Snapshot stats_mine() const { return store->stats_mine(); }
};

/// The read-path floor: Michael hash table probed with no transaction
/// open — nbtcLoad's null-ctx fast path, no descriptor, no read logging,
/// no validation. Not a store (no secondary index, no feed); it exists
/// purely as the denominator for the store read path's "within ~2x of a
/// raw lookup" bar, so it registers only for mixes B/C and maps B's 5%
/// put straight onto the table.
struct RawHashAdapter {
  static const char* name() { return "RawHash"; }
  static constexpr std::uint64_t kInsertWrap = 0;

  medley::TxManager mgr;
  std::unique_ptr<medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t>>
      table;
  std::atomic<std::uint64_t> next_insert{0}, max_key{0};

  void setup(const YcsbScale& sc) {
    table = std::make_unique<
        medley::ds::MichaelHashTable<std::uint64_t, std::uint64_t>>(
        &mgr, /*buckets=*/1u << 16);
    for (std::uint64_t k = 1; k <= sc.records; k++) table->put(k, k);
    next_insert.store(sc.records + 1);
    max_key.store(sc.records);
  }

  void op(medley::util::Xoshiro256& rng, KeyDist& keys, const Mix& mix) {
    const auto x = static_cast<int>(rng.next_bounded(100));
    if (x < mix.read_w) {
      benchmark::DoNotOptimize(table->get(keys.pick(rng, mix)));
      return;
    }
    table->put(keys.pick(rng, mix), rng.next());
  }

  ms::StoreStats::Snapshot stats_mine() const { return {}; }
};

template <typename Adapter>
void run_ycsb_benchmark(benchmark::State& state) {
  Adapter& sys = *mb::SystemHolder<Adapter>::get();
  const Mix& mix = mixes()[static_cast<std::size_t>(state.range(0))];
  const YcsbScale& sc = YcsbScale::get();
  medley::util::Xoshiro256 rng(mb::thread_seed(state));
  KeyDist keys{
      medley::util::ZipfGenerator(sc.records, kZipfTheta,
                                  mb::thread_seed(state) ^ 0x5eedULL),
      medley::util::ZipfGenerator(kLatestWindow, kZipfTheta,
                                  mb::thread_seed(state) ^ 0xfeedULL),
      &sys.next_insert, &sys.max_key, sc.records, Adapter::kInsertWrap};

  const auto before = sys.stats_mine();
  for (auto _ : state) {
    sys.op(rng, keys, mix);
  }
  const auto after = sys.stats_mine();

  if constexpr (requires { sys.emit_counters(state); }) {
    if (state.thread_index() == 0) sys.emit_counters(state);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["aborts_per_tx"] = benchmark::Counter(
      static_cast<double>(after.aborts() - before.aborts()),
      benchmark::Counter::kAvgIterations);
  state.counters["retries_per_tx"] = benchmark::Counter(
      static_cast<double>(after.retries - before.retries),
      benchmark::Counter::kAvgIterations);
  // Per-reason abort rates (same exact per-thread deltas): conflict is
  // descriptor arbitration, validation the read-only/read-set check,
  // capacity a full write set or exhausted region, user explicit txAbort.
  const auto reason_rate = [&](std::uint64_t a, std::uint64_t b) {
    return benchmark::Counter(static_cast<double>(a - b),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["aborts_conflict_per_tx"] =
      reason_rate(after.conflict_aborts, before.conflict_aborts);
  state.counters["aborts_validation_per_tx"] =
      reason_rate(after.validation_aborts, before.validation_aborts);
  state.counters["aborts_capacity_per_tx"] =
      reason_rate(after.capacity_aborts, before.capacity_aborts);
  state.counters["aborts_user_per_tx"] =
      reason_rate(after.user_aborts, before.user_aborts);
}

/// `only`: optional mix-label filter ("BC" = register B and C rows only)
/// for read-path systems whose A/D/E/F rows would measure nothing new.
template <typename Adapter>
void register_ycsb(const char* only = nullptr) {
  const YcsbScale& sc = YcsbScale::get();
  for (std::size_t mi = 0; mi < mixes().size(); mi++) {
    if (only != nullptr &&
        std::string(only).find(mixes()[mi].label) == std::string::npos) {
      continue;
    }
    std::string name =
        std::string("ycsb/") + Adapter::name() + "/mix:" + mixes()[mi].label;
    auto* b = benchmark::RegisterBenchmark(name.c_str(),
                                           run_ycsb_benchmark<Adapter>);
    b->Arg(static_cast<int>(mi));
    b->Setup([](const benchmark::State&) {
      auto& slot = mb::SystemHolder<Adapter>::get();
      slot = std::make_unique<Adapter>();
      slot->setup(YcsbScale::get());
    });
    b->Teardown([](const benchmark::State&) {
      auto& slot = mb::SystemHolder<Adapter>::get();
      if constexpr (requires { slot->store->dump_metrics(); }) {
        if (slot) maybe_dump_metrics(slot->store->dump_metrics());
      }
      slot.reset();
    });
    b->UseRealTime();
    b->MinTime(sc.min_time);
    for (int t : sc.threads) b->Threads(t);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_ycsb<MedleyStoreAdapter<true>>();
  register_ycsb<MedleyStoreAdapter<false>>();
  register_ycsb<ShardedStoreAdapter<1>>();
  register_ycsb<ShardedStoreAdapter<4>>();
  register_ycsb<ShardedStoreAdapter<8>>();
  register_ycsb<RangeShardedStoreAdapter<4>>();
  register_ycsb<RangeShardedStoreAdapter<8>>();
  register_ycsb<PersistentStoreAdapter>();
  // The untracked read floor beside the store rows above. B/C only.
  register_ycsb<RawHashAdapter>("BC");
  // Group-commit ablation (BENCH_ycsb_combining.json): flat-combining
  // batch layer on vs eager one-tx-per-op twins above. A/B only — the
  // combiner batches mutations, so read-dominated C gains nothing, and
  // the 1-shard / 1-thread rows are the honest-cost floor (every batch
  // is size 1: pure publication + lock overhead).
  register_ycsb<ShardedStoreAdapter<1, true>>("AB");
  register_ycsb<ShardedStoreAdapter<4, true>>("AB");
  register_ycsb<ShardedStoreAdapter<8, true>>("AB");
  register_ycsb<RangeShardedStoreAdapter<4, true>>("AB");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
