#include "util/thread_registry.hpp"

#include <atomic>
#include <thread>

#include "util/align.hpp"

namespace medley::util {
namespace {

std::atomic<bool> g_used[ThreadRegistry::kMaxThreads];
std::atomic<int> g_high_water{0};
std::atomic<void (*)(int)> g_release_hook{nullptr};

/// Return `id` to the pool after running the hook on its owning thread.
void release(int id) {
  if (auto* hook = g_release_hook.load(std::memory_order_acquire)) hook(id);
  g_used[id].store(false, std::memory_order_release);
}

int acquire_slot() {
  for (;;) {
    for (int i = 0; i < ThreadRegistry::kMaxThreads; i++) {
      bool expected = false;
      if (!g_used[i].load(std::memory_order_relaxed) &&
          g_used[i].compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        int hw = g_high_water.load(std::memory_order_relaxed);
        while (hw < i + 1 && !g_high_water.compare_exchange_weak(
                                 hw, i + 1, std::memory_order_acq_rel)) {
        }
        return i;
      }
    }
    // All 256 slots busy: wait for a thread to exit and return its slot.
    // Yield rather than hard-spin so the holders can actually run (on an
    // oversubscribed machine a tight loop here starved the very threads
    // whose exit we were waiting for).
    std::this_thread::yield();
  }
}

// A thread's lease lives in a thread_local whose destructor returns the id.
// id == kDead marks a lease whose destructor has already run: thread_local
// destruction order is unspecified, so another thread_local's destructor may
// still call tid() after ours ran. Writing into `id` at that point would
// leak the slot forever (no destructor remains to release it) — repeated
// short-lived threads would then exhaust the table and wedge acquire_slot().
// Such late calls are instead routed to a *fresh* function-local
// thread_local lease (late_tid below): the C++ runtime runs destructors
// registered during thread exit too (same contract as atexit), so the late
// lease is released as well.
constexpr int kDead = -2;

struct Lease {
  int id = -1;
  ~Lease() {
    if (id >= 0) release(id);
    id = kDead;
  }
};

thread_local Lease t_lease;

int late_tid() {
  thread_local Lease t_late;
  if (t_late.id == -1) t_late.id = acquire_slot();
  if (t_late.id >= 0) return t_late.id;
  // Even the late lease was destroyed (a destructor registered after it ran
  // called back in). Acquire once more and accept the one-slot leak — it is
  // bounded to pathological exit sequences and beats corrupting a live slot.
  t_late.id = acquire_slot();
  return t_late.id;
}

}  // namespace

int ThreadRegistry::tid() {
  if (t_lease.id >= 0) return t_lease.id;
  if (t_lease.id == kDead) return late_tid();
  t_lease.id = acquire_slot();
  return t_lease.id;
}

int ThreadRegistry::max_tid() {
  return g_high_water.load(std::memory_order_acquire);
}

void ThreadRegistry::release_current() {
  if (t_lease.id >= 0) {
    release(t_lease.id);
    t_lease.id = -1;
  }
}

void ThreadRegistry::on_release(void (*hook)(int id)) {
  g_release_hook.store(hook, std::memory_order_release);
}

}  // namespace medley::util
