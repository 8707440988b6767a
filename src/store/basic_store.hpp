#pragma once
// BasicMedleyStore: the transactional KV-store façade (ROADMAP "serving
// layer"). Nonblocking structures share one TxManager and every public
// operation is ONE Medley transaction composing them:
//
//   primary    — point index (get / contains), the key -> value mapping;
//   secondary  — ordered index over the SAME entries (range / scan);
//   change feed — MSQueue of committed mutations, in serialization order.
//
// Because the writes of a mutation (index updates, feed append) linearize
// atomically at MCNS commit, the indexes can never be observed out of
// sync by a committed transaction and the feed never shows a mutation
// that did not happen — without a single lock anywhere (paper Layer 2;
// PAPER.md "Layer 4 — serving").
//
// The façade is parameterized over the structure types and has two forms:
//
//   single-index (Primary == Secondary, one object): one structure serves
//     both roles, and a mutation is one call on it plus the feed append.
//     MedleyStore uses it with ds::SkipHash — a Fraser skiplist whose
//     nodes are also linked into a split-ordered hash list — so a
//     present-key put is a bucket probe plus two CASes on the one shared
//     node (no descent, no allocation), and range/scan enter the same
//     nodes' level 0 at lo's node when lo is present (an absent lo pays
//     the probe, then descends).
//   two-index (distinct types): a mutation updates the primary, then the
//     secondary, in one transaction. PersistentMedleyStore uses it with
//     the txMontage hash table and skiplist.
//
// Interface contract:
//   Primary:   get/contains/put/remove (put is insert-or-update and
//              returns the previous value);
//   Secondary: put/remove/range/scan (same put; the Fraser skiplist
//              updates a present key in place — two critical CASes, no
//              new node).
//
// Nesting: a store operation called while the thread is already inside a
// transaction of the same manager flat-nests into it (its effects commit
// or abort with the enclosing transaction). Top-level calls run under the
// store's TxExecutor (policy = StoreConfig::tx_policy) and record a
// TxStats into the StoreStats block; top-level reads (get/contains/range/
// scan) run as read-only snapshots (TxExecutor::execute_ro). Feed
// push/poll accounting rides the transaction's cleanup list instead, so
// it is exact in BOTH modes — counted once at commit (including an
// enclosing transaction's commit), discarded with an aborted attempt.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/combiner.hpp"
#include "core/medley.hpp"
#include "ds/fraser_skiplist.hpp"
#include "ds/ms_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/feed.hpp"
#include "store/store_stats.hpp"

namespace medley::store {

/// Hard per-transaction ceiling on change-feed pops. Every dequeue costs a
/// descriptor write entry (the head CAS) and the merged drain also a read
/// entry (the re-peek of that head); a drain deeper than the word sets
/// would deterministically Capacity-abort — an abort the retry policy
/// treats as transient and re-runs — and the poll would spin forever.
/// Desc::kWriteCap / 2 leaves half the write set for the peeks and any
/// enclosing transaction's own writes. "Up to max_entries" permits
/// returning fewer; drain loops just call again.
inline constexpr std::size_t kMaxFeedDrainPerTx = core::Desc::kWriteCap / 2;

/// Store-layer contract for an executor call whose policy stopped
/// retrying: a transient terminal abort must not be mistaken for a
/// committed operation, so it is rethrown; a User abort stays silent
/// (store bodies only user-abort on behalf of the caller's own business
/// rule). Shared by BasicMedleyStore::exec and ShardedMedleyStore::transact.
template <typename R>
inline void rethrow_failed_non_user(const TxResult<R>& res) {
  if (!res.committed() && res.terminal &&
      *res.terminal != core::AbortReason::User) {
    throw core::TransactionAborted(*res.terminal);
  }
}

struct StoreConfig {
  /// Initial hash buckets of the point index. MedleyStore's SkipHash
  /// rounds it up to a power of two and doubles as keys accumulate; the
  /// persistent store's hash table keeps it fixed. Must be > 0.
  std::size_t buckets = 1u << 16;
  bool feed_enabled = true;        // disable to trade the feed for less
                                   // tail contention (bench ablation)

  /// One poll_feed transaction's drain clamp (≤ kMaxFeedDrainPerTx, which
  /// it defaults to; see that constant for the Capacity-abort-spin this
  /// prevents). Lower it to bound poll latency / feed burst size.
  /// Validated at store construction: 0 throws (it would silently make
  /// poll_feed a permanent no-op), anything above kMaxFeedDrainPerTx is
  /// clamped to it — config() reports the clamped, effective value.
  std::size_t feed_drain_per_tx = kMaxFeedDrainPerTx;

  /// Execution policy for the store's top-level transactions: retry rules
  /// and the ContentionManager pacing them (tx_exec.hpp). The default —
  /// unbounded retry of transient aborts, no backoff — reproduces the
  /// historical run_tx behavior. A store with a bounded policy surfaces
  /// budget exhaustion by rethrowing the terminal TransactionAborted.
  TxPolicy tx_policy{};

  /// Flat-combining group commit (core/combiner.hpp): top-level put/del/
  /// read_modify_write publish into per-store publication slots and a
  /// lock-holding combiner executes batches of up to combining.max_batch
  /// ops as ONE transaction — one descriptor, one commit CAS — so commit
  /// traffic amortizes under a contended key head, and async_put/async_del
  /// become available for submit-side pipelining. Default OFF: on an
  /// uncontended store the publication handshake is pure overhead (the
  /// honest-cost row in BENCH_ycsb_combining.json); turn it on for
  /// write-contended workloads (YCSB-A-like) or hot shards. Validated at
  /// construction: 0 slots / 0 max_batch throw; slots above
  /// core::kMaxCombinerSlots and max_batch above min(slots,
  /// core::kMaxCombinedBatch) clamp — config() reports effective values.
  /// Reads and ambient (flat-nested) operations never route through the
  /// combiner; cross-shard transactions of the sharded stores bypass it
  /// the same way.
  core::CombinerConfig combining;

  // ---- Observability (src/obs) -----------------------------------------

  /// Master switch for the metrics layer: per-op-type counters, per-op
  /// latency (ns) and attempts histograms recorded by the store's
  /// TxExecutors, abort-reason and RO-fallback counters, and key-count /
  /// feed-depth gauges — all queryable via dump_metrics(). Default OFF;
  /// the metrics-off hot path costs one untaken branch per operation.
  bool metrics = false;

  /// Histogram sampling: the store's executors record latency/attempts
  /// for 1 in 2^metrics_sample_shift operations (TxPolicy::obs_sample_shift).
  /// Counters, gauges, and stats() stay exact — only the histogram sample
  /// stream thins, which leaves quantiles unbiased. The default 1/64 keeps
  /// the TSC read pair (~20ns, >10% of a fast get) off the common path;
  /// set 0 to record every operation (exact-tail benches do).
  std::uint8_t metrics_sample_shift = 6;

  /// Registry the store's instruments live in. Null + metrics → the store
  /// creates a private one. ShardedStoreBase points every shard at ONE
  /// registry (with shard="i" labels) so dump_metrics() is store-wide.
  /// Pull gauges capture the store — a shared registry must not be read
  /// after a store that registered into it is destroyed.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;

  /// Constant labels stamped on every series this store registers (the
  /// sharded base sets {"shard", "<i>"}; single stores usually leave it
  /// empty).
  obs::Labels metric_labels;

  /// Per-thread capacity of the tx-lifecycle trace ring (obs/trace.hpp);
  /// 0 = tracing off (default). Independent of `metrics`: tracing is a
  /// debugging/post-mortem tool (a few relaxed stores per attempt), the
  /// registry a serving observable.
  std::size_t trace_capacity = 0;

  /// Ring to emit into. Null + trace_capacity → the store creates one.
  /// Sharded stores share one ring so a cross-shard transaction's
  /// lifecycle lands in a single timeline.
  std::shared_ptr<obs::TraceRing> trace_ring;
};

/// Construction-time validation of a StoreConfig (shared by
/// BasicMedleyStore and ShardedStoreBase): buckets = 0 throws (a hash
/// index needs a bucket); feed_drain_per_tx = 0 throws — it would
/// silently turn poll_feed into a permanent no-op — and values above
/// kMaxFeedDrainPerTx clamp to it (the documented contract; the ceiling
/// exists so a drain can never deterministically Capacity-abort).
inline StoreConfig validated(StoreConfig cfg) {
  if (cfg.buckets == 0) {
    throw std::invalid_argument("StoreConfig::buckets must be > 0");
  }
  if (cfg.feed_drain_per_tx == 0) {
    throw std::invalid_argument(
        "StoreConfig::feed_drain_per_tx must be > 0 (0 would make "
        "poll_feed a permanent no-op; disable the feed with feed_enabled "
        "instead)");
  }
  cfg.feed_drain_per_tx =
      std::min(cfg.feed_drain_per_tx, kMaxFeedDrainPerTx);
  if (cfg.combining.enabled) {
    if (cfg.combining.slots == 0) {
      throw std::invalid_argument(
          "StoreConfig::combining.slots must be > 0 when combining is "
          "enabled (0 slots would make every mutation spin forever looking "
          "for a publication slot; disable combining instead)");
    }
    if (cfg.combining.max_batch == 0) {
      throw std::invalid_argument(
          "StoreConfig::combining.max_batch must be > 0 when combining is "
          "enabled (a 0-op batch would make the combiner a no-op and every "
          "waiter wait forever)");
    }
    cfg.combining.slots =
        std::min(cfg.combining.slots, core::kMaxCombinerSlots);
    // A batch can never exceed the slot count, and core::kMaxCombinedBatch
    // keeps a full batch's write entries clear of Desc::kWriteCap (the
    // same deterministic-Capacity-abort spin the feed clamp prevents).
    cfg.combining.max_batch = std::min(
        {cfg.combining.max_batch, cfg.combining.slots,
         core::kMaxCombinedBatch});
  }
  return cfg;
}

template <typename K, typename V, typename Primary, typename Secondary>
class BasicMedleyStore : public core::Composable {
 public:
  using FeedItem = FeedEntry<K, V>;

  /// One structure serves as both indexes (see the header comment).
  static constexpr bool kSingleIndex = std::is_same_v<Primary, Secondary>;

  /// The store borrows the indexes (owned by the concrete subclass, which
  /// knows how to build them) and owns the feed queue. Composable gives
  /// it addToCleanups for commit-exact feed accounting. The single-index
  /// form takes the same object twice.
  BasicMedleyStore(core::TxManager* mgr, Primary* primary,
                   Secondary* secondary, const StoreConfig& cfg)
      : Composable(mgr),
        primary_(primary),
        secondary_(secondary),
        cfg_(validated(cfg)),
        feed_(mgr) {
    if constexpr (kSingleIndex) {
      if (primary != secondary) {
        throw std::invalid_argument(
            "BasicMedleyStore: a store whose Primary and Secondary are the "
            "same type indexes through one structure; pass it twice");
      }
    }
    init_observability();
    if (cfg_.combining.enabled) {
      combiner_ = std::make_unique<Combiner>(
          cfg_.combining.slots, cfg_.combining.max_batch,
          cfg_.combining.handoff, trace_ring_.get());
    }
  }

  /// Operation types the store instruments (the `op` label of every
  /// per-op metric series).
  enum OpType : int {
    kOpGet = 0,
    kOpContains,
    kOpPut,
    kOpDel,
    kOpRmw,
    kOpMultiPut,
    kOpRange,
    kOpScan,
    kOpPeekFeed,
    kOpPollFeed,
    kOpCross,    // used by ShardedStoreBase for cross-shard transactions
    kOpCombine,  // one combined group-commit batch (N logical ops)
    kOpTypeCount
  };

  static const char* op_name(int op) {
    static constexpr const char* kNames[kOpTypeCount] = {
        "get",   "contains", "put",  "del",       "rmw",       "multi_put",
        "range", "scan",     "peek_feed", "poll_feed", "cross", "combine"};
    return kNames[op];
  }

  // ---- point operations --------------------------------------------------

  std::optional<V> get(const K& k) {
    std::optional<V> res;
    exec_ro(kOpGet, [&] { res = primary_->get(k); });
    return res;
  }

  /// Existence probe. Unlike get(), never materializes the value: the
  /// primary's existence-only lookup registers just the witnessing bucket
  /// link, so a contains over a large value type copies nothing.
  bool contains(const K& k) {
    bool res = false;
    exec_ro(kOpContains, [&] { res = primary_->contains(k); });
    return res;
  }

  /// Insert-or-replace; returns the previous value if any. With combining
  /// enabled, a top-level call publishes into the combiner and the batch
  /// transaction commits it (same return value, same linearization
  /// guarantees — the batch IS one transaction).
  std::optional<V> put(const K& k, const V& v) {
    if (combiner_ && !mgr->in_tx()) {
      return combined_mutate(kOpPut, CombReq{CombReq::kPut, k, v});
    }
    std::optional<V> old;
    exec(kOpPut, [&] { old = put_in_tx(k, v); });
    return old;
  }

  /// Remove; returns the removed value if the key was present.
  std::optional<V> del(const K& k) {
    if (combiner_ && !mgr->in_tx()) {
      return combined_mutate(kOpDel, CombReq{CombReq::kDel, k});
    }
    std::optional<V> old;
    exec(kOpDel, [&] { old = del_in_tx(k); });
    return old;
  }

  /// Atomic read-modify-write: `f(current) -> desired` where nullopt on
  /// either side means absent. Returns the value f chose (nullopt = the
  /// key is now absent). f may run several times (once per tx attempt)
  /// and must be side-effect-free; with combining enabled it may also run
  /// on ANOTHER thread (the combiner executing the batch), though never
  /// after this call returns. An exception out of f fails only this op —
  /// the rest of the batch still commits — and is rethrown here.
  template <typename F>
  std::optional<V> read_modify_write(const K& k, F&& f) {
    if (combiner_ && !mgr->in_tx()) {
      CombReq req{CombReq::kRmw, k, V{}};
      req.ctx = &f;
      req.fn = [](const void* ctx, const std::optional<V>& cur) {
        auto* fp = static_cast<std::remove_reference_t<F>*>(
            const_cast<void*>(ctx));
        return std::optional<V>((*fp)(cur));
      };
      return combined_mutate(kOpRmw, std::move(req));
    }
    std::optional<V> desired;
    exec(kOpRmw, [&] {
      std::optional<V> cur = primary_->get(k);
      desired = f(static_cast<const std::optional<V>&>(cur));
      if (desired) {
        put_in_tx(k, *desired);
      } else if (cur) {
        del_in_tx(k);
      }
    });
    return desired;
  }

  // ---- async submission (pipelining) -------------------------------------
  // Publish a mutation now, harvest its result later: the returned future
  // completes when some combiner's batch commits the op, so a caller can
  // keep submitting (or doing unrelated work) instead of blocking per op.
  // Discipline: resolve futures on the submitting thread, OUTSIDE any open
  // transaction (the future helps execute batches; ready()/get() throw
  // std::logic_error inside one). Harvest every future you submit — a
  // harvested result is the only way to SEE the op's outcome. A future
  // dropped without get() still cleans up after itself: its destructor
  // drives the published op to completion (helping combine if needed),
  // bills it, and discards the result, returning the publication slot to
  // the pool — so exception unwinding between submit and harvest does not
  // degrade capacity. One caveat: a future destroyed INSIDE an open
  // transaction cannot help combine (the batch would nest), so it only
  // reclaims its slot if the op already executed; a still-pending op's
  // slot stays parked — don't carry unharvested futures into a
  // transaction. Lifetime: the future borrows this
  // store and its TxManager — resolve or drop every future before either
  // is destroyed (nothing enforces this; a future that outlives its store
  // dangles). Without combining (or when no slot is free, or under an
  // ambient transaction where batching would break flat-nesting) the op
  // executes eagerly and the future comes back already resolved, so the
  // API is always safe to call.

  using AsyncResult = TxFuture<std::optional<V>>;

  AsyncResult async_put(const K& k, const V& v) {
    return async_mutate(kOpPut, CombReq{CombReq::kPut, k, v});
  }

  AsyncResult async_del(const K& k) {
    return async_mutate(kOpDel, CombReq{CombReq::kDel, k});
  }

  /// All-or-nothing batch upsert (one transaction, one feed entry per
  /// key). Batch size is bounded by the descriptor write set (~1K words).
  void multi_put(const std::vector<std::pair<K, V>>& kvs) {
    exec(kOpMultiPut, [&] {
      for (const auto& [k, v] : kvs) put_in_tx(k, v);
    });
  }

  // ---- ordered operations (secondary index) ------------------------------

  /// Atomic snapshot of all entries with lo <= key <= hi, ascending.
  /// `entry` reaches the secondary when it takes one (ds::ScanEntry: a
  /// sharded store passes kDescend for a shard lo does not route to).
  std::vector<std::pair<K, V>> range(
      const K& lo, const K& hi, ds::ScanEntry entry = ds::ScanEntry::kProbe) {
    std::vector<std::pair<K, V>> out;
    exec_ro(kOpRange, [&] {
      if constexpr (requires { secondary_->range(lo, hi, entry); }) {
        out = secondary_->range(lo, hi, entry);
      } else {
        out = secondary_->range(lo, hi);
      }
    });
    return out;
  }

  /// Atomic snapshot of up to `limit` entries with key >= lo, ascending.
  std::vector<std::pair<K, V>> scan(
      const K& lo, std::size_t limit,
      ds::ScanEntry entry = ds::ScanEntry::kProbe) {
    std::vector<std::pair<K, V>> out;
    exec_ro(kOpScan, [&] {
      if constexpr (requires { secondary_->scan(lo, limit, entry); }) {
        out = secondary_->scan(lo, limit, entry);
      } else {
        out = secondary_->scan(lo, limit);
      }
    });
    return out;
  }

  // ---- change feed -------------------------------------------------------

  /// Front of the change feed without consuming it (transactional: the
  /// head's identity joins the read set). The sharded store's merged poll
  /// peeks every shard inside one transaction to pick the next entry.
  std::optional<FeedItem> peek_feed() {
    std::optional<FeedItem> out;
    exec(kOpPeekFeed, [&] { out = feed_.peek(); });
    return out;
  }

  /// Atomically drain up to `max_entries` committed mutations, oldest
  /// first. Entries leave the feed exactly once (consumer groups are the
  /// caller's problem). Empty result = feed drained. One call pops at
  /// most feed_drain_per_tx entries (see kMaxFeedDrainPerTx for the
  /// Capacity-abort-spin the clamp prevents) — drain loops just call
  /// again.
  std::vector<FeedItem> poll_feed(std::size_t max_entries) {
    // cfg_ is construction-validated: feed_drain_per_tx is non-zero and
    // already clamped to kMaxFeedDrainPerTx.
    max_entries = std::min(max_entries, cfg_.feed_drain_per_tx);
    std::vector<FeedItem> out;
    exec(kOpPollFeed, [&] {
      out.clear();
      while (out.size() < max_entries) {
        auto e = feed_.dequeue();
        if (!e) break;
        out.push_back(*e);
      }
      if (const std::size_t n = out.size(); n > 0) {
        addToCleanups([this, n] { stats_.note_feed_poll(n); });
      }
    });
    if (feed_drain_hist_ != nullptr) feed_drain_hist_->record(out.size());
    return out;
  }

  // ---- introspection -----------------------------------------------------

  StoreStats::Snapshot stats() const { return stats_.aggregate(); }
  StoreStats::Snapshot stats_mine() const { return stats_.mine(); }

  /// Group-commit batches executed / ops they carried (0 with combining
  /// off). combined_ops() / combined_batches() is the achieved
  /// amortization factor; the full distribution is the
  /// medley_store_combined_batch histogram in dump_metrics().
  std::uint64_t combined_batches() const {
    return combiner_ ? combiner_->batches() : 0;
  }
  std::uint64_t combined_ops() const {
    return combiner_ ? combiner_->combined_ops() : 0;
  }

  /// Publication slots permanently parked by a TxFuture destroyed INSIDE
  /// an open transaction while its op was still pending (the async-API
  /// caveat documented above async_put). Each leak costs one slot of
  /// combiner capacity for the store's lifetime, and its op — which any
  /// later combiner drain will still execute and commit — is never billed
  /// by a submitter, so commits may undercount feed entries by the leaked
  /// amount. There is no online recovery (nothing can safely free a slot
  /// that a batch may be executing); the counter (+ debug-build assert at
  /// the leak site, + the medley_store_combiner_slots_leaked_total metric)
  /// exists so harvest loops like the network server's can prove they
  /// never do this, and so an operator seeing nonzero knows to fix the
  /// caller and recycle the store.
  std::uint64_t combiner_slots_leaked() const {
    return slots_leaked_.load(std::memory_order_relaxed);
  }
  std::uint64_t feed_depth() const { return stats_.feed_depth(); }
  const StoreConfig& config() const { return cfg_; }
  core::TxManager* manager() { return mgr; }
  Primary& primary() { return *primary_; }
  Secondary& secondary() { return *secondary_; }

  /// Prometheus text exposition of every metric this store registered
  /// (empty string when StoreConfig::metrics is off).
  std::string dump_metrics() const {
    return registry_ ? registry_->prometheus() : std::string{};
  }

  /// Same registry as a JSON array (histograms with p50/p90/p99/p999).
  std::string dump_metrics_json() const {
    return registry_ ? registry_->json() : std::string{"[]"};
  }

  /// The registry (null when metrics are off); sharded stores hand every
  /// shard the same one.
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return registry_;
  }

  /// The tx-lifecycle ring (null when trace_capacity == 0) and its
  /// human-readable dump — post-mortem interleaving analysis.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return trace_ring_;
  }
  std::string dump_trace() const {
    return trace_ring_ ? trace_ring_->dump_text() : std::string{};
  }

 protected:
  /// Run `body` as this store's transaction: flat-nested into an ambient
  /// transaction, else executed by the store's TxExecutor under the
  /// configured TxPolicy, with the TxStats recorded. (Feed counters are
  /// NOT handled here — they ride the cleanup list so they fire exactly
  /// once, at whichever transaction actually commits the effects.) If a
  /// bounded policy exhausts its budget on a transient reason, the
  /// terminal abort is rethrown so callers never mistake a non-committed
  /// operation for a committed one; a user abort stays silent (the
  /// historical contract — store bodies only user-abort on behalf of the
  /// caller's own business rule).
  template <typename Body>
  void exec(OpType op, Body&& body) {
    if (mgr->in_tx()) {
      body();
      return;
    }
    settle(op, op_exec_[op].execute(*mgr, body));
  }

  /// exec() for read-only bodies: a top-level call is a snapshot
  /// (execute_ro, full-transaction fallback on a torn one); an ambient
  /// transaction of either mode flat-nests the body into itself.
  template <typename Body>
  void exec_ro(OpType op, Body&& body) {
    if (mgr->in_tx()) {
      body();
      return;
    }
    settle(op, op_exec_[op].execute_ro(*mgr, body));
  }

  /// Bill one resolved top-level execute and enforce the store contract.
  void settle(OpType op, const TxResult<void>& res) {
    if (registry_) note_result(op, res);
    stats_.record(res.stats);
    rethrow_failed_non_user(res);
  }

  // ---- flat-combining glue (core/combiner.hpp) ---------------------------

  /// A published mutation. rmw travels type-erased: `fn(ctx, current)`
  /// computes the desired value; ctx points at the caller's callable,
  /// which stays alive for the whole blocking submit (async submission is
  /// put/del only, whose requests are self-contained).
  struct CombReq {
    enum Kind : std::uint8_t { kPut, kDel, kRmw };
    Kind kind = kPut;
    K key{};
    V val{};
    const void* ctx = nullptr;
    std::optional<V> (*fn)(const void*, const std::optional<V>&) = nullptr;
  };
  using Combiner = core::FlatCombiner<CombReq, std::optional<V>>;
  using CombSlot = typename Combiner::Slot;

  /// Apply one published op inside the batch transaction. A user rmw
  /// callback that throws fails only ITS op (op.err; the mutation is
  /// skipped, the batch commits the rest) — but a TransactionAborted out
  /// of it is the transaction's, not the user's, and propagates so the
  /// attempt aborts and retries as a whole.
  void apply_comb_op(typename Combiner::Op& op) {
    op.err = nullptr;  // re-applied fresh on every transaction attempt
    const CombReq& rq = op.req;
    switch (rq.kind) {
      case CombReq::kPut:
        op.res = put_in_tx(rq.key, rq.val);
        break;
      case CombReq::kDel:
        op.res = del_in_tx(rq.key);
        break;
      case CombReq::kRmw: {
        std::optional<V> cur = primary_->get(rq.key);
        std::optional<V> desired;
        try {
          desired = rq.fn(rq.ctx, cur);
        } catch (const core::TransactionAborted&) {
          throw;
        } catch (...) {
          op.err = std::current_exception();
          op.res = std::nullopt;
          return;
        }
        if (desired) {
          put_in_tx(rq.key, *desired);
        } else if (cur) {
          del_in_tx(rq.key);
        }
        op.res = desired;
        break;
      }
    }
  }

  /// The batch executor the combiner runs under its lock: one store
  /// transaction applying every published op, billed so that N combined
  /// ops read as exactly N logical ops — the batch records its abort/
  /// retry stats here with the commit STRIPPED (op="combine" latency and
  /// attempts histograms still see the batch), and each submitter bills
  /// its own commit + op counter on successful completion. A batch that
  /// cannot commit (bounded policy exhausted) throws, which the combiner
  /// fans out to every waiter: all-or-nothing.
  void run_batch(std::vector<CombSlot*>& batch) {
    auto body = [&] {
      for (CombSlot* s : batch) apply_comb_op(s->op);
    };
    auto res = op_exec_[kOpCombine].execute(*mgr, body);
    TxStats s = res.stats;
    s.commits = 0;  // each waiter bills its own logical commit
    stats_.record(s);
    if (registry_) note_tx_stats(res.stats);
    if (!res.committed()) {
      throw core::TransactionAborted(
          res.terminal.value_or(core::AbortReason::User));
    }
    if (combined_batch_hist_ != nullptr) {
      combined_batch_hist_->record(batch.size());
    }
    if (combined_ops_counter_ != nullptr) {
      combined_ops_counter_->inc(batch.size());
    }
  }

  /// Submitter side of a combined synchronous mutation: publish, wait (or
  /// combine), bill ONE logical op on success. Errors (batch abort, rmw
  /// callback) propagate without billing a commit — matching exec()'s
  /// contract that a non-committed op is never mistaken for a committed
  /// one.
  std::optional<V> combined_mutate(OpType op, CombReq req) {
    auto fn = [this](std::vector<CombSlot*>& b) { run_batch(b); };
    std::optional<V> out = combiner_->submit(std::move(req), fn);
    TxStats s;
    s.commits = 1;
    stats_.record(s);
    if (registry_) op_counters_[op]->inc();
    return out;
  }

  /// Submitter side of async_put/async_del: publish without waiting and
  /// return a future whose steps poll (help combining if the lock is
  /// free) or wait, then consume + bill. Falls back to an eagerly
  /// executed, already-resolved future when combining is off, the thread
  /// is inside a transaction (batching would break flat-nesting), or no
  /// publication slot is free (bounded pipeline depth, never deadlock).
  AsyncResult async_mutate(OpType op, CombReq req) {
    if (combiner_ && !mgr->in_tx()) {
      // try_publish moves from req only on success: a nullptr return
      // (slot exhaustion) leaves req intact for the eager fallback below.
      if (CombSlot* slot = combiner_->try_publish(std::move(req))) {
        return AsyncResult(
            [this, op, slot](AsyncResult& self, bool block) {
              if (mgr->in_tx()) {
                throw std::logic_error(
                    "resolve store TxFutures outside any open transaction "
                    "(resolving helps execute combiner batches)");
              }
              auto fn = [this](std::vector<CombSlot*>& b) { run_batch(b); };
              if (block) {
                combiner_->wait(slot, fn);
              } else if (!combiner_->done(slot)) {
                combiner_->help(fn);
                if (!combiner_->done(slot)) return false;
              }
              try {
                self.set_value(combiner_->consume(slot));
                TxStats s;
                s.commits = 1;
                stats_.record(s);
                if (registry_) op_counters_[op]->inc();
              } catch (...) {
                self.set_error(std::current_exception());
              }
              return true;
            },
            // Abandoned without get(): drive the published op over the
            // line, bill it (it commits whether or not anyone looks), and
            // discard the result so the slot returns to the pool. Inside
            // an open transaction helping would nest the batch, so only
            // an already-executed op's slot can be reclaimed there.
            [this, op, slot] {
              if (mgr->in_tx()) {
                if (!combiner_->done(slot)) {
                  note_slot_leak();  // parked forever; see the accessor
                  return;
                }
              } else if (!combiner_->done(slot)) {
                auto fn = [this](std::vector<CombSlot*>& b) {
                  run_batch(b);
                };
                combiner_->wait(slot, fn);
              }
              try {
                combiner_->consume(slot);
                TxStats s;
                s.commits = 1;
                stats_.record(s);
                if (registry_) op_counters_[op]->inc();
              } catch (...) {
                // Batch aborted: the op never committed, nothing to bill.
              }
            });
      }
    }
    try {
      std::optional<V> out;
      const OpType eager_op = op;
      switch (req.kind) {
        case CombReq::kPut:
          exec(eager_op, [&] { out = put_in_tx(req.key, req.val); });
          break;
        case CombReq::kDel:
          exec(eager_op, [&] { out = del_in_tx(req.key); });
          break;
        case CombReq::kRmw:
          // Unreachable today (async surface is put/del); kept total so a
          // future async_rmw cannot silently drop the op.
          exec(eager_op, [&] {
            std::optional<V> cur = primary_->get(req.key);
            out = req.fn(req.ctx, cur);
            if (out) {
              put_in_tx(req.key, *out);
            } else if (cur) {
              del_in_tx(req.key);
            }
          });
          break;
      }
      return AsyncResult::ready(std::move(out));
    } catch (...) {
      return AsyncResult::error(std::current_exception());
    }
  }

  /// Account one leaked publication slot (TxFuture abandoned inside an
  /// open transaction with its op still pending). The assert makes the
  /// misuse loud in Debug builds; Release/RelWithDebInfo deployments get
  /// the counter + metric instead of a crash.
  void note_slot_leak() {
    slots_leaked_.fetch_add(1, std::memory_order_relaxed);
    if (slots_leaked_counter_ != nullptr) slots_leaked_counter_->inc();
    assert(!"TxFuture abandoned inside an open transaction: combiner "
            "publication slot leaked (harvest futures before entering a "
            "transaction)");
  }

  std::optional<V> put_in_tx(const K& k, const V& v) {
    std::optional<V> old = primary_->put(k, v);
    if constexpr (!kSingleIndex) secondary_->put(k, v);
    feed_append(FeedItem{FeedOp::Put, k, v});
    // Key-count accounting rides the cleanup list like the feed counters:
    // counted once iff the mutation actually commits, so key_count() is
    // the exact live-key total between quiescent points (the sharded
    // stores' partition-imbalance observable).
    if (!old) addToCleanups([this] { stats_.note_key_insert(1); });
    return old;
  }

  std::optional<V> del_in_tx(const K& k) {
    std::optional<V> old = primary_->remove(k);
    if (!old) return std::nullopt;  // read-only outcome, still validated
    if constexpr (!kSingleIndex) secondary_->remove(k);
    feed_append(FeedItem{FeedOp::Del, k, V{}});
    addToCleanups([this] { stats_.note_key_remove(1); });
    return old;
  }

  void feed_append(FeedItem item) {
    if (!cfg_.feed_enabled) return;
    // Stamp inside the transaction: an aborted attempt burns a stamp (gaps
    // are fine); the retry draws a fresh, larger one.
    item.seq = feed_seq_->fetch_add(1, std::memory_order_relaxed);
    feed_.enqueue(item);
    addToCleanups([this] { stats_.note_feed_push(1); });
  }

  /// Build the metrics / tracing plumbing from cfg_. Registration is the
  /// cold path: instruments resolve to raw pointers ONCE here; the hot
  /// path then only bumps per-thread slots. Each op type's TxExecutor
  /// carries its instruments (if any) in its policy, so instrumented and
  /// plain execution share one code path.
  void init_observability() {
    if (cfg_.trace_capacity > 0) {
      trace_ring_ = cfg_.trace_ring
                        ? cfg_.trace_ring
                        : std::make_shared<obs::TraceRing>(cfg_.trace_capacity);
    }
    if (cfg_.metrics) {
      registry_ = cfg_.metrics_registry
                      ? cfg_.metrics_registry
                      : std::make_shared<obs::MetricsRegistry>();
      util::tsc_ns_per_tick();  // calibrate now, not on the first op
    }
    auto labeled = [&](const char* k, const char* v) {
      obs::Labels l = cfg_.metric_labels;
      l.emplace_back(k, v);
      return l;
    };
    for (int op = 0; op < kOpTypeCount; op++) {
      TxPolicy p = cfg_.tx_policy;
      p.trace = trace_ring_.get();
      if (registry_) {
        p.obs_sample_shift = cfg_.metrics_sample_shift;
        op_counters_[op] = &registry_->counter(
            "medley_store_ops_total", "Completed top-level store operations",
            labeled("op", op_name(op)));
        p.latency_hist = &registry_->histogram(
            "medley_store_op_latency_ns",
            "End-to-end latency of top-level store operations (ns)",
            labeled("op", op_name(op)));
        p.attempts_hist = &registry_->histogram(
            "medley_store_op_attempts",
            "Transaction attempts consumed per top-level operation",
            labeled("op", op_name(op)));
      }
      op_exec_[op] = TxExecutor(std::move(p));
    }
    if (!registry_) return;
    static constexpr const char* kReasons[] = {"conflict", "validation",
                                               "capacity", "user"};
    for (int r = 0; r < 4; r++) {
      abort_counters_[r] = &registry_->counter(
          "medley_store_aborts_total", "Aborted transaction attempts by reason",
          labeled("reason", kReasons[r]));
    }
    retries_counter_ = &registry_->counter(
        "medley_store_tx_retries_total",
        "Aborted attempts that were re-run under the store's policy",
        cfg_.metric_labels);
    ro_fallback_counters_[0] = &registry_->counter(
        "medley_store_ro_fallbacks_total",
        "Read-only snapshot attempts that fell back to a full transaction",
        labeled("kind", "write"));
    ro_fallback_counters_[1] = &registry_->counter(
        "medley_store_ro_fallbacks_total",
        "Read-only snapshot attempts that fell back to a full transaction",
        labeled("kind", "validation"));
    feed_drain_hist_ = &registry_->histogram(
        "medley_store_feed_drain", "Entries drained per poll_feed call",
        cfg_.metric_labels);
    if (cfg_.combining.enabled) {
      combined_batch_hist_ = &registry_->histogram(
          "medley_store_combined_batch",
          "Ops executed per combined group-commit batch", cfg_.metric_labels);
      combined_ops_counter_ = &registry_->counter(
          "medley_store_combined_ops_total",
          "Store operations committed via combined group-commit batches",
          cfg_.metric_labels);
      slots_leaked_counter_ = &registry_->counter(
          "medley_store_combiner_slots_leaked_total",
          "Combiner publication slots permanently parked by futures "
          "abandoned inside an open transaction",
          cfg_.metric_labels);
    }
    registry_->gauge_fn("medley_store_keys",
                        "Live keys (commit-exact insert minus remove)",
                        cfg_.metric_labels, [this] {
                          return static_cast<double>(
                              stats_.aggregate().key_count());
                        });
    registry_->gauge_fn("medley_store_feed_depth",
                        "Committed feed entries not yet polled",
                        cfg_.metric_labels, [this] {
                          return static_cast<double>(stats_.feed_depth());
                        });
  }

  /// Registry-side accounting of one resolved top-level execute: op count,
  /// per-reason abort counts, retries, RO fallback kind. Counter bumps are
  /// per-thread relaxed adds; the zero checks keep the common uncontended
  /// op at a single increment.
  template <typename R>
  void note_result(OpType op, const TxResult<R>& res) {
    op_counters_[op]->inc();
    note_tx_stats(res.stats);
    if (res.ro_fallback) {
      ro_fallback_counters_[*res.ro_fallback == ROFallback::kWrite ? 0 : 1]
          ->inc();
    }
  }

  /// The abort/retry slice of note_result, shared with the combined-batch
  /// path (which bills the op counts submitter-side instead).
  void note_tx_stats(const TxStats& s) {
    if (s.conflict_aborts) abort_counters_[0]->inc(s.conflict_aborts);
    if (s.validation_aborts) abort_counters_[1]->inc(s.validation_aborts);
    if (s.capacity_aborts) abort_counters_[2]->inc(s.capacity_aborts);
    if (s.user_aborts) abort_counters_[3]->inc(s.user_aborts);
    if (s.retries) retries_counter_->inc(s.retries);
  }

  Primary* primary_;
  Secondary* secondary_;
  StoreConfig cfg_;
  ds::MSQueue<FeedItem> feed_;
  StoreStats stats_;
  std::atomic<std::uint64_t> owned_feed_seq_{0};
  std::atomic<std::uint64_t>* feed_seq_ = &owned_feed_seq_;

  // Observability plumbing (init_observability). Raw instrument pointers
  // stay valid for the registry's lifetime; the store keeps the registry
  // (and ring) alive via shared_ptr.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::TraceRing> trace_ring_;
  TxExecutor op_exec_[kOpTypeCount];
  obs::Counter* op_counters_[kOpTypeCount] = {};
  obs::Counter* abort_counters_[4] = {};
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* ro_fallback_counters_[2] = {};  // write, validation
  obs::Histogram* feed_drain_hist_ = nullptr;
  obs::Histogram* combined_batch_hist_ = nullptr;
  obs::Counter* combined_ops_counter_ = nullptr;
  obs::Counter* slots_leaked_counter_ = nullptr;
  /// Slots parked forever by futures abandoned inside an open transaction
  /// (see combiner_slots_leaked()). Kept outside the registry so the leak
  /// is countable even with metrics off.
  std::atomic<std::uint64_t> slots_leaked_{0};

  /// The flat combiner (null unless cfg_.combining.enabled). Built after
  /// init_observability so it can emit into the store's trace ring.
  std::unique_ptr<Combiner> combiner_;

 public:
  /// Stamp feed entries from a shared sequencer instead of the store's own
  /// counter. ShardedMedleyStore points every shard at one sequencer so
  /// the merged feed can interleave shards near commit order. Call before
  /// any traffic; the sequencer must outlive the store.
  void share_feed_sequencer(std::atomic<std::uint64_t>* seq) {
    feed_seq_ = seq;
  }

  // ---- sharded-merge internals ------------------------------------------
  // ShardedMedleyStore's merged poll drains the queue directly inside its
  // own (ambient) transaction — bypassing poll_feed's per-call vector and
  // per-entry accounting closure — and defers ONE poll count per shard.

  ds::MSQueue<FeedItem>& feed_queue() { return feed_; }

  /// Commit-exact accounting for `n` entries drained via feed_queue():
  /// counted once iff the enclosing transaction commits.
  void defer_feed_poll_accounting(std::size_t n) {
    if (n > 0) addToCleanups([this, n] { stats_.note_feed_poll(n); });
  }
};

}  // namespace medley::store
