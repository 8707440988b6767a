#pragma once
// Shared plumbing of the perfbench runner: command-line options, result
// collection, thread pinning, latency samples, the key/value tagging that
// makes every read checkable, and the in-memory span recorder of the
// traced run.
//
// Everything here is the benchmark's own code. It times the program from
// outside, at the calls into each layer's public functions; nothing under
// src/ is patched or instrumented.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// ---- options and results ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test hook: store one value tagged with the wrong key before the
  /// timed phase, so the output checks must count it as a failure.
  bool plant_wrong_read = false;
  /// Where the traced run writes its span dump (empty = no dump).
  std::string span_dir;
};

struct Metric {
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Lines printed before the result object, each prefixed with "# ".
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// One failed output check: counted into `failed`, marks the run
  /// incorrect, and the first few are described on stdout.
  void fail(const std::string& what) {
    failed++;
    correct = false;
    if (failed <= 5) note("check failed: " + what);
  }
};

// ---- clocks, memory, placement --------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline int cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Pin the calling thread to one CPU (taken modulo the online count, so a
/// smaller host still runs).
inline void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpu_count(), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Restrict the calling thread to a set of CPUs; threads it creates
/// afterwards inherit the mask.
inline void set_mask(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c % cpu_count(), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

inline void unpin() {
  std::vector<int> all;
  for (int c = 0; c < cpu_count(); c++) all.push_back(c);
  set_mask(all);
}

// ---- value tagging ---------------------------------------------------------
// Every value written carries its key in the high bits, so any read can
// check it came back for the key it asked for.

constexpr int kTagShift = 24;

inline std::uint64_t tag_value(std::uint64_t key, std::uint64_t version) {
  return (key << kTagShift) | (version & ((1ull << kTagShift) - 1));
}
inline bool tagged_for(std::uint64_t value, std::uint64_t key) {
  return (value >> kTagShift) == key;
}

// ---- workload inputs -------------------------------------------------------

/// A fixed permutation of [0, n): zipf rank -> key, so the hot keys are
/// spread over the key space as YCSB's scrambled zipfian spreads them. As
/// in YCSB the scramble is part of the workload, not of the seed: the
/// seed draws the op stream (which ranks, which ops, which lengths), and
/// every seed sees the same hot keys at the same places in the index.
inline std::vector<std::uint64_t> key_permutation(std::uint64_t n) {
  std::vector<std::uint64_t> p(n);
  for (std::uint64_t i = 0; i < n; i++) p[i] = i;
  medley::util::Xoshiro256 rng(0x9e3779b97f4a7c15ull);
  for (std::uint64_t i = n - 1; i > 0; i--) {
    std::swap(p[i], p[rng.next_bounded(i + 1)]);
  }
  return p;
}

// ---- timed phases ----------------------------------------------------------
// A timed phase is cut into windows of kWindowS seconds. Workers count
// ops and record latencies per window; a metric is the median over the
// full windows of its per-window value, so a host hiccup that spoils one
// window does not move it.

constexpr double kWindowS = 0.5;

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets per
/// power of two (under 0.8% relative error). Its size is fixed, so the
/// benchmark's own memory does not grow with the ops it records.
struct Hist {
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (32 - kSubBits + 1) * kSub;

  std::vector<std::uint32_t> counts = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t total = 0;

  static std::size_t index(std::uint64_t v) {
    v = std::min<std::uint64_t>(v, 0xffffffffu);
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= kSubBits
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub +
           ((v >> (e - kSubBits)) & (kSub - 1));
  }
  /// Midpoint of bucket i.
  static double value(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    const double lo = static_cast<double>((kSub + i % kSub) << (e - kSubBits));
    return lo + static_cast<double>(std::uint64_t{1} << (e - kSubBits)) / 2;
  }
  void add(std::uint64_t v) {
    counts[index(v)]++;
    total++;
  }
  void merge(const Hist& o) {
    for (std::size_t i = 0; i < kBuckets; i++) counts[i] += o.counts[i];
    total += o.total;
  }
  /// q-quantile (nearest rank); 0 when empty.
  double quantile(double q) const {
    if (total == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * (total - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; i++) {
      seen += counts[i];
      if (seen > rank) return value(i);
    }
    return value(kBuckets - 1);
  }
};

/// Latency histograms, one per window.
struct Samples {
  std::vector<Hist> windows;

  void add(std::uint32_t w, std::uint64_t d) {
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].add(d);
  }
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const Hist& h : windows) n += h.total;
    return n;
  }
};

/// q-quantile (nearest rank) of v; 0 when empty. Reorders v.
inline double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Ops completed per window.
struct Counts {
  std::vector<std::uint64_t> n;
  void add(std::uint32_t w) {
    if (n.size() <= w) n.resize(w + 1, 0);
    n[w]++;
  }
  std::uint64_t at(std::uint32_t w) const { return w < n.size() ? n[w] : 0; }
};

/// Main-thread side of a timed phase: releases the workers, advances the
/// window every kWindowS, and stops them after `secs`.
class PhaseClock {
 public:
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> window{0};

  /// Runs the phase and returns its length in seconds.
  double run(double secs) {
    const std::uint64_t t0 = now_ns();
    const auto end = t0 + static_cast<std::uint64_t>(secs * 1e9);
    go.store(true, std::memory_order_release);
    for (std::uint32_t w = 1;; w++) {
      const auto next = t0 + static_cast<std::uint64_t>(w * kWindowS * 1e9);
      if (next >= end) break;
      sleep_until(next);
      window.store(w, std::memory_order_relaxed);
    }
    sleep_until(end);
    stop.store(true, std::memory_order_release);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// Windows that ran their full length (at least one: a phase shorter
  /// than a window is one window of the phase's length).
  static std::uint32_t full_windows(double secs) {
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(secs / kWindowS + 1e-9));
  }
  static double window_secs(double secs) {
    return secs < kWindowS ? secs : kWindowS;
  }

 private:
  static void sleep_until(std::uint64_t t) {
    const std::uint64_t now = now_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }
};

/// Summed op rate of each full window.
inline std::vector<double> window_rates(
    const std::vector<const Counts*>& per_thread, double secs) {
  std::vector<double> rates;
  for (std::uint32_t w = 0; w < PhaseClock::full_windows(secs); w++) {
    std::uint64_t n = 0;
    for (const Counts* c : per_thread) n += c->at(w);
    rates.push_back(static_cast<double>(n) / PhaseClock::window_secs(secs));
  }
  return rates;
}

/// Median over full windows of the summed per-window op rate.
inline double windowed_rate(const std::vector<const Counts*>& per_thread,
                            double secs) {
  return median(window_rates(per_thread, secs));
}

/// "min / median / max" of the window rates, for a note line.
inline std::string rate_spread(const std::vector<const Counts*>& per_thread,
                               double secs) {
  std::vector<double> r = window_rates(per_thread, secs);
  std::sort(r.begin(), r.end());
  return "window rates min " + std::to_string(r.front()) + ", median " +
         std::to_string(median(r)) + ", max " + std::to_string(r.back()) +
         " per s";
}

/// Median over full windows of the per-window q-quantile, in ns.
inline double windowed_quantile(const std::vector<const Samples*>& per_thread,
                                double secs, double q) {
  std::vector<double> qs;
  for (std::uint32_t w = 0; w < PhaseClock::full_windows(secs); w++) {
    Hist h;
    for (const Samples* s : per_thread) {
      if (w < s->windows.size()) h.merge(s->windows[w]);
    }
    if (h.total > 0) qs.push_back(h.quantile(q));
  }
  return median(qs);
}

/// Report `<prefix>_p50_us` / `<prefix>_p99_us` and note the sample count.
inline void report_latency(Result& r, const std::string& prefix,
                           const std::string& what,
                           const std::vector<const Samples*>& per_thread,
                           double secs) {
  std::uint64_t n = 0;
  for (const Samples* s : per_thread) n += s->count();
  const std::uint32_t windows = PhaseClock::full_windows(secs);
  r.set(prefix + "_p50_us", windowed_quantile(per_thread, secs, 0.50) / 1000.0,
        "us");
  r.set(prefix + "_p99_us", windowed_quantile(per_thread, secs, 0.99) / 1000.0,
        "us");
  r.note(prefix + " = " + what + ": " + std::to_string(n) + " samples, " +
         std::to_string(n / windows / 100) + " beyond p99 per " +
         std::to_string(PhaseClock::window_secs(secs)) + " s window, median of " +
         std::to_string(windows) + " windows");
}

// ---- spans (traced run only) ----------------------------------------------

enum SpanName : std::uint16_t {
  kSpanStoreGet,
  kSpanStorePut,
  kSpanStoreScan,
  kSpanStorePollFeed,
  kSpanHashGet,
  kSpanHashPut,
  kSpanHashRemove,
  kSpanSkipInsert,
  kSpanSkipRemove,
  kSpanSkipScan,
  kSpanNetGet,
  kSpanNetAsyncPut,
  kSpanClientBatch,
  kSpanCount
};

inline const char* span_name(int s) {
  static constexpr const char* kNames[kSpanCount] = {
      "store.get",       "store.put",         "store.scan",
      "store.poll_feed", "ds.hash.get",       "ds.hash.put",
      "ds.hash.remove",  "ds.skiplist.insert", "ds.skiplist.remove",
      "ds.skiplist.scan", "net.store.get",    "net.store.async_put",
      "client.send_batch"};
  return kNames[s];
}

struct Span {
  std::uint64_t t0, t1;
  std::uint64_t op;      // client op id (0 = not tied to a client op)
  std::uint32_t parent;  // 1 + index of the parent span in this thread's
                         // buffer; 0 = none
  std::uint16_t name;
};

/// One thread's span buffer. Owned by the Tracer, so buffers of threads
/// that have exited (server workers after stop) stay readable.
struct SpanBuf {
  std::vector<Span> spans;
  int thread = 0;
};

/// Process-wide span recorder. Spans are recorded only while the calling
/// thread's `on` flag is set (the traced phase samples whole client ops),
/// into a per-thread buffer capped at kMaxSpansPerThread.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 1u << 21;

  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  struct Local {
    SpanBuf* buf = nullptr;
    bool on = false;
    std::uint64_t op = 0;
    std::uint32_t parent = 0;
  };

  static Local& local() {
    thread_local Local l;
    return l;
  }

  SpanBuf* my_buf() {
    Local& l = local();
    if (l.buf == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      bufs_.push_back(std::make_unique<SpanBuf>());
      bufs_.back()->thread = static_cast<int>(bufs_.size()) - 1;
      bufs_.back()->spans.reserve(1u << 16);
      l.buf = bufs_.back().get();
    }
    return l.buf;
  }

  /// Every buffer recorded so far. Call only after recording threads
  /// have stopped.
  std::vector<SpanBuf*> buffers() {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<SpanBuf*> out;
    for (auto& b : bufs_) out.push_back(b.get());
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& b : bufs_) b->spans.clear();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuf>> bufs_;
};

/// RAII span: a no-op unless the calling thread is tracing. Nested scopes
/// record their enclosing scope as parent. Runs its destructor on the
/// abort path too, so an aborted attempt's partial span is kept.
class SpanScope {
 public:
  explicit SpanScope(SpanName name) {
    Tracer::Local& l = Tracer::local();
    if (!l.on) return;
    SpanBuf* b = Tracer::instance().my_buf();
    if (b->spans.size() >= Tracer::kMaxSpansPerThread) return;
    buf_ = b;
    idx_ = static_cast<std::uint32_t>(b->spans.size());
    saved_parent_ = l.parent;
    b->spans.push_back(Span{now_ns(), 0, l.op, l.parent, name});
    l.parent = idx_ + 1;
  }
  ~SpanScope() {
    if (buf_ == nullptr) return;
    buf_->spans[idx_].t1 = now_ns();
    Tracer::local().parent = saved_parent_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuf* buf_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t saved_parent_ = 0;
};

/// Per-name span statistics of everything recorded: the duration of each
/// span and each span's self time (duration minus its children's).
struct SpanStats {
  std::vector<std::uint32_t> dur[kSpanCount];
  std::vector<std::uint32_t> self[kSpanCount];

  static std::uint32_t clamp(std::uint64_t d) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(d, 0xffffffffu));
  }

  static SpanStats collect() {
    SpanStats st;
    for (SpanBuf* b : Tracer::instance().buffers()) {
      std::vector<std::uint64_t> child(b->spans.size(), 0);
      for (const Span& s : b->spans) {
        if (s.parent != 0 && s.t1 >= s.t0) child[s.parent - 1] += s.t1 - s.t0;
      }
      for (std::size_t i = 0; i < b->spans.size(); i++) {
        const Span& s = b->spans[i];
        if (s.t1 < s.t0) continue;  // still open: not recorded
        const std::uint64_t d = s.t1 - s.t0;
        st.dur[s.name].push_back(clamp(d));
        st.self[s.name].push_back(clamp(d >= child[i] ? d - child[i] : 0));
      }
    }
    return st;
  }

  double p50(SpanName n) { return quantile(dur[n], 0.5); }
  double self_p50(SpanName n) { return quantile(self[n], 0.5); }
};

/// Write up to `per_thread` spans of every buffer as CSV:
/// thread,index,op,name,parent,start_ns,end_ns.
inline void dump_spans(const std::string& path, std::size_t per_thread) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,index,op,name,parent,start_ns,end_ns\n");
  for (SpanBuf* b : Tracer::instance().buffers()) {
    const std::size_t n = std::min(per_thread, b->spans.size());
    for (std::size_t i = 0; i < n; i++) {
      const Span& s = b->spans[i];
      std::fprintf(f, "%d,%zu,%llu,%s,%lld,%llu,%llu\n", b->thread, i,
                   static_cast<unsigned long long>(s.op), span_name(s.name),
                   static_cast<long long>(s.parent) - 1,
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1));
    }
  }
  std::fclose(f);
}

// ---- misc -----------------------------------------------------------------

template <typename F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; i++) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

inline std::string list_of(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

// The workloads, and the two preludes of their traced run.
Result run_kv(const Options& opt);
void run_ladder(Result& r);
void run_wire_layers(Result& r, const Options& opt);

}  // namespace perfbench
