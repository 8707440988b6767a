// The wire section of the traced run: the net and combiner layers under
// load, measured per layer. It runs the server as examples/kv_service.cpp
// configures it (2-shard ShardedMedleyStore, combining on, metrics on, 2
// epoll workers) and two pinned client connections sending pipelined
// batches of 16 requests over 100k preloaded keys (zipfian 0.99) for
// kPhaseSecs. Each batch is all GET or all PUT with equal odds: a GET
// batch is 16 synchronous reads, a PUT batch is one wave published into
// the combiner. After each PUT batch the client drains 16 feed entries in
// process, the tap the kv workloads run, so the feed stays shallow.
//
// It is not a timed end-to-end workload: on the shared VM the benchmark
// was tuned on, its blocking threads wait on the hypervisor to wake their
// vCPUs, and in stretches of host load that sent a 30 s run's p99 from
// 0.4 ms to 2-4 ms and its throughput from 250k to 116k requests/s.
//
// Thread placement: the server workers inherit a {0,1} cpu mask set on
// the starting thread before Server::start, then each is pinned to its own
// cpu of that mask; the two clients are pinned to cpus 2 and 3. Four
// threads of load in all.
//
// A StoreApi decorator around the adapter times every get/async_put call
// the server makes. Those spans carry no parent: from outside the program
// a server-side call cannot be tied to the wire request that caused it, so
// net self time is aggregate (batch round trips minus store-call time).

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "store/sharded_store.hpp"

namespace perfbench {
namespace {

namespace ms = medley::store;
namespace net = medley::net;
using Key = std::uint64_t;
using Val = std::uint64_t;
using Store = ms::ShardedMedleyStore<Key, Val>;

constexpr std::uint64_t kKeys = 100'000;
constexpr int kClients = 2;
/// Length of the traced closed-loop phase.
constexpr double kPhaseSecs = 2.0;
constexpr std::size_t kBatch = 16;
constexpr double kTheta = 0.99;
/// Traced phase: one server-side store call in kSampleEvery becomes a
/// span; every call is summed into the aggregate store-call time.
constexpr std::uint64_t kSampleEvery = 4;

/// StoreApi decorator timing the server's calls into the store.
class TimedApi final : public net::StoreApi {
 public:
  explicit TimedApi(net::StoreApi* inner) : inner_(inner) {}

  std::atomic<bool> traced{false};
  std::atomic<std::uint64_t> store_ns{0};

  std::optional<Val> get(Key k) override {
    const std::uint64_t t0 = now_ns();
    auto v = inner_->get(k);
    note(kSpanNetGet, t0);
    return v;
  }
  Async async_put(Key k, Val v) override {
    const std::uint64_t t0 = now_ns();
    auto f = inner_->async_put(k, v);
    note(kSpanNetAsyncPut, t0);
    return f;
  }
  Async async_del(Key k) override { return inner_->async_del(k); }
  Val rmw_add(Key k, Val d) override { return inner_->rmw_add(k, d); }
  std::vector<std::pair<Key, Val>> range(Key lo, Key hi) override {
    return inner_->range(lo, hi);
  }
  std::vector<std::pair<Key, Val>> scan(Key lo, std::size_t limit) override {
    return inner_->scan(lo, limit);
  }
  void multi_put(const std::vector<std::pair<Key, Val>>& kvs) override {
    inner_->multi_put(kvs);
  }
  net::StatsBlob stats_blob() override { return inner_->stats_blob(); }
  std::string metrics_text() override { return inner_->metrics_text(); }

 private:
  void note(SpanName name, std::uint64_t t0) {
    if (!traced.load(std::memory_order_relaxed)) return;
    const std::uint64_t t1 = now_ns();
    store_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    thread_local std::uint64_t calls = 0;
    if (calls++ % kSampleEvery != 0) return;
    SpanBuf* b = Tracer::instance().my_buf();
    if (b->spans.size() < Tracer::kMaxSpansPerThread) {
      b->spans.push_back(Span{t0, t1, 0, 0, name});
    }
  }

  net::StoreApi* inner_;
};

/// One served store: built, preloaded, serving, with its clients
/// connected. Members are declared in teardown-reverse order.
struct Service {
  std::shared_ptr<medley::obs::MetricsRegistry> registry;
  std::unique_ptr<Store> kv;
  std::unique_ptr<net::StoreAdapter<Store>> adapter;
  std::unique_ptr<TimedApi> timed;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::string placement;

  ~Service() {
    clients.clear();
    if (server) server->stop();
  }
};

/// Ids of this process's threads.
std::vector<int> thread_ids() {
  std::vector<int> out;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') out.push_back(std::atoi(e->d_name));
    }
    closedir(d);
  }
  return out;
}

/// CPU time a thread of this process has run, in ns (schedstat).
std::uint64_t cpu_ns(int tid) {
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t ns = 0;
  f >> ns;
  return ns;
}

/// Connect the clients so that each is served by its own worker. Which
/// SO_REUSEPORT listener takes a connection is a hash of its address, so
/// two connections share a worker half the time, and that halves the
/// served capacity of a run. The worker that serves a connection is found
/// from outside: it is the one whose CPU time grows while the connection
/// sends a burst of GETs. A connection landing on a taken worker is
/// closed and redialled. Each serving worker is then pinned to its own
/// cpu within the inherited {0,1} mask.
void connect_balanced(Service& s, const std::vector<int>& workers) {
  std::vector<int> owners;
  for (int c = 0; c < kClients; c++) {
    for (int attempt = 0;; attempt++) {
      auto cl = std::make_unique<net::Client>("127.0.0.1", s.server->port());
      std::vector<std::uint64_t> before;
      for (int w : workers) before.push_back(cpu_ns(w));
      for (Key k = 1; k <= 200; k++) cl->get(k);
      int owner = 0;
      std::uint64_t most = 0;
      for (std::size_t i = 0; i < workers.size(); i++) {
        const std::uint64_t d = cpu_ns(workers[i]) - before[i];
        if (d > most) {
          most = d;
          owner = workers[i];
        }
      }
      const bool taken =
          std::find(owners.begin(), owners.end(), owner) != owners.end();
      if (!taken || attempt >= 16) {
        // Pin the serving worker to its own cpu of the {0,1} mask.
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c % cpu_count(), &set);
        sched_setaffinity(owner, sizeof(set), &set);
        owners.push_back(owner);
        s.clients.push_back(std::move(cl));
        s.placement += " client " + std::to_string(c) + " served by worker " +
                       std::to_string(owner) + " pinned to cpu " +
                       std::to_string(c % cpu_count()) +
                       (taken ? " (shared)" : "") + ";";
        break;
      }
    }
  }
}

std::unique_ptr<Service> build() {
  auto s = std::make_unique<Service>();
  ms::StoreConfig cfg;
  cfg.combining.enabled = true;
  cfg.metrics = true;
  cfg.metrics_registry = std::make_shared<medley::obs::MetricsRegistry>();
  s->registry = cfg.metrics_registry;
  s->kv = std::make_unique<Store>(2, cfg);
  Store& kv = *s->kv;
  std::vector<std::pair<Key, Val>> batch;
  for (Key k = 1; k <= kKeys; k += 32) {
    batch.clear();
    for (Key j = k; j < std::min(kKeys + 1, k + 32); j++) {
      batch.emplace_back(j, tag_value(j, 0));
    }
    kv.multi_put(batch);
  }
  while (!kv.poll_feed(ms::kMaxFeedDrainPerTx).empty()) {
  }
  s->adapter = std::make_unique<net::StoreAdapter<Store>>(&kv);
  s->timed = std::make_unique<TimedApi>(s->adapter.get());
  net::NetConfig ncfg;
  ncfg.workers = 2;
  ncfg.registry = s->registry;
  const std::vector<int> before = thread_ids();
  set_mask({0, 1});  // the workers inherit this mask
  s->server = std::make_unique<net::Server>(s->timed.get(), ncfg);
  s->server->start();
  unpin();
  std::vector<int> workers;
  for (int tid : thread_ids()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      workers.push_back(tid);
    }
  }
  connect_balanced(*s, workers);
  return s;
}

struct ClientOut {
  std::vector<std::uint8_t> put_keys = std::vector<std::uint8_t>(kKeys + 1);
  std::uint64_t requests = 0, failed = 0, puts_acked = 0;
  std::uint64_t batches = 0, rtt_ns = 0;
  std::string first_fail;
  void fail(std::string what) {
    if (failed++ == 0) first_fail = std::move(what);
  }
};

struct Phase {
  double secs = 0;
  std::uint64_t requests = 0, failed = 0, puts_acked = 0;
  std::uint64_t batches = 0, rtt_ns = 0;
  std::string first_fail;
};

Phase run_phase(Service& s, const Options& opt,
                const std::vector<std::uint64_t>& perm,
                std::vector<std::uint8_t>& put_keys) {
  std::atomic<int> ready{0};
  PhaseClock clock;
  std::vector<ClientOut> outs(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      pin_to(2 + c);
      ClientOut& o = outs[c];
      net::Client& cl = *s.clients[c];
      const std::uint64_t seed = opt.seed * 1000003 + 0x3171 + c;
      medley::util::ZipfGenerator zipf(kKeys, kTheta, seed);
      medley::util::Xoshiro256 rng(seed ^ 0x5eed);
      std::vector<net::Request> batch;
      std::uint64_t version = 1;
      Tracer::Local& tl = Tracer::local();
      tl.on = true;
      ready++;
      while (!clock.go.load(std::memory_order_acquire)) {
      }
      while (!clock.stop.load(std::memory_order_relaxed)) {
        const bool puts = rng.next() & 1;
        batch.clear();
        for (std::size_t i = 0; i < kBatch; i++) {
          const Key k = perm[zipf.next()] + 1;
          batch.push_back(puts ? cl.make(net::Verb::kPut, k,
                                         tag_value(k, version++))
                               : cl.make(net::Verb::kGet, k));
        }
        o.requests += kBatch;
        std::vector<net::Response> rs;
        const std::uint64_t t0 = now_ns();
        try {
          SpanScope sp(kSpanClientBatch);
          rs = cl.send_batch(batch);
        } catch (const std::exception& e) {
          o.fail(std::string("send_batch threw: ") + e.what());
          o.failed += kBatch - 1;
          break;  // the connection is unusable
        }
        const std::uint64_t d = now_ns() - t0;
        o.batches++;
        o.rtt_ns += d;
        if (puts) {
          // The replication tap of the kv workloads, in process: drain as
          // many feed entries as the batch appended, so the feed stays
          // shallow and memory does not grow with the requests served.
          try {
            s.kv->poll_feed(kBatch);
          } catch (const std::exception& e) {
            o.fail(std::string("poll_feed threw: ") + e.what());
          }
        }
        for (std::size_t i = 0; i < kBatch; i++) {
          const net::Request& rq = batch[i];
          const net::Response& rp = rs[i];
          const bool ok = rp.id == rq.id && rp.status == net::Status::kOk &&
                          rp.val && tagged_for(*rp.val, rq.a);
          if (!ok) {
            o.fail(std::string(puts ? "PUT " : "GET ") +
                   std::to_string(rq.a) + " answered status " +
                   net::status_name(rp.status) +
                   (rp.val ? ", value tagged " +
                                 std::to_string(*rp.val >> kTagShift)
                           : std::string()));
          }
          if (puts && rp.status == net::Status::kOk) {
            o.puts_acked++;
            o.put_keys[rq.a] = 1;
          }
        }
      }
      tl.on = false;
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  Phase ph;
  ph.secs = clock.run(kPhaseSecs);
  for (auto& th : threads) th.join();
  for (ClientOut& o : outs) {
    ph.requests += o.requests;
    ph.failed += o.failed;
    ph.puts_acked += o.puts_acked;
    ph.batches += o.batches;
    ph.rtt_ns += o.rtt_ns;
    for (Key k = 1; k <= kKeys; k++) put_keys[k] |= o.put_keys[k];
    if (ph.first_fail.empty()) ph.first_fail = o.first_fail;
  }
  return ph;
}

void fold_phase(Result& r, const Phase& ph) {
  r.attempted += ph.requests;
  if (ph.failed > 0) {
    r.failed += ph.failed;
    r.correct = false;
    r.note("check failed: " + ph.first_fail + " (" +
           std::to_string(ph.failed) + " requests failed)");
  }
}

/// Sum of every sample of one metric family in a Prometheus exposition.
double scrape_sum(const std::string& text, const std::string& name) {
  double sum = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() <= name.size() ||
        (line[name.size()] != ' ' && line[name.size()] != '{')) {
      continue;
    }
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

/// Output checks: every key an acked PUT wrote reads back over the wire
/// with its own tag; then, with the server stopped, the store audit holds
/// and no combiner slot leaked.
void audit(Service& s, Result& r, const std::vector<std::uint8_t>& put_keys,
           std::uint64_t expect_pushed) {
  net::Client& cl = *s.clients[0];
  std::vector<net::Request> batch;
  std::uint64_t readback = 0, bad = 0;
  auto flush = [&] {
    if (batch.empty()) return;
    auto rs = cl.send_batch(batch);
    for (std::size_t i = 0; i < batch.size(); i++) {
      readback++;
      if (rs[i].status != net::Status::kOk || !rs[i].val ||
          !tagged_for(*rs[i].val, batch[i].a)) {
        if (bad++ < 3) {
          r.fail("readback of acked PUT key " + std::to_string(batch[i].a) +
                 " is not tagged with its key");
        } else {
          r.failed++;
        }
      }
    }
    batch.clear();
  };
  for (Key k = 1; k <= kKeys; k++) {
    if (!put_keys[k]) continue;
    batch.push_back(cl.make(net::Verb::kGet, k));
    if (batch.size() == 64) flush();
  }
  flush();
  r.attempted += readback;
  s.clients.clear();
  s.server->stop();

  Store& kv = *s.kv;
  audit_store(kv, r, kKeys, expect_pushed);
  if (kv.combiner_slots_leaked() != 0) {
    r.fail("audit: " + std::to_string(kv.combiner_slots_leaked()) +
           " combiner slots leaked");
  }
  r.attempted += 1;
}

}  // namespace

void run_wire_layers(Result& r, const Options& opt) {
  const std::vector<std::uint64_t> perm = key_permutation(kKeys);
  std::vector<std::uint8_t> put_keys(kKeys + 1, 0);
  std::unique_ptr<Service> s = build();
  const std::uint64_t batches0 = s->kv->combined_batches();
  const std::uint64_t cops0 = s->kv->combined_ops();
  s->timed->traced = true;
  Phase ph = run_phase(*s, opt, perm, put_keys);
  s->timed->traced = false;
  fold_phase(r, ph);

  r.set("combiner.ops_per_batch",
        ratio(static_cast<double>(s->kv->combined_ops() - cops0),
              static_cast<double>(s->kv->combined_batches() - batches0)),
        "ops");
  r.set("combiner.slots_leaked",
        static_cast<double>(s->kv->combiner_slots_leaked()), "count");
  const std::string scrape = s->clients[0]->metrics();
  r.set("net.requests_per_wave",
        ratio(scrape_sum(scrape, "medley_net_batch_size_sum"),
              scrape_sum(scrape, "medley_net_batch_size_count")),
        "requests");
  r.set("net.errors", scrape_sum(scrape, "medley_net_errors_total"), "count");
  SpanStats ss = SpanStats::collect();
  r.set("net.store_call_ns.get", ss.p50(kSpanNetGet), "ns");
  r.set("net.store_call_ns.async_put", ss.p50(kSpanNetAsyncPut), "ns");
  const double store_ns = static_cast<double>(s->timed->store_ns.load());
  r.set("net.self_us_per_batch",
        ratio(static_cast<double>(ph.rtt_ns) - store_ns,
              static_cast<double>(ph.batches)) /
            1000.0,
        "us");
  r.note("wire section: " + std::to_string(ph.requests) + " requests in " +
         std::to_string(ph.secs) + " s; placement: server workers masked to "
         "cpus 0,1; clients pinned to cpus 2,3 (mod nproc);" + s->placement);
  if (!opt.span_dir.empty()) {
    const std::string path = opt.span_dir + "/spans-" + opt.workload +
                             "-wire-seed" + std::to_string(opt.seed) + ".csv";
    dump_spans(path, 20000);
    r.note("span dump: " + path);
  }
  audit(*s, r, put_keys, kKeys + ph.puts_acked);
}

}  // namespace perfbench
