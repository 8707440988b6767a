#pragma once
// Epoch-based safe memory reclamation (EBR), the SMR scheme the paper's
// Composable base class builds on (Sec. 3.1, citing Fraser / Hart et al. /
// RCU).
//
// Protocol: readers pin the global epoch for the duration of a critical
// region (one data structure operation, or one whole Medley transaction —
// see note below). retire(p) tags p with the epoch current at retirement;
// p is freed once the global epoch has advanced by 2, which guarantees every
// thread that could have held a reference has since passed through a
// quiescent state.
//
// Transactional pinning: a Medley transaction keeps CASObj* addresses of
// *other threads' nodes* in its read/write sets between operations, and its
// finalization code performs guarded 128-bit CASes on them. The TxManager
// therefore holds one Guard across the whole transaction; per-operation
// guards (OpStarter) simply nest inside it. This is what makes a descriptor
// that has been force-aborted by a peer still safe to uninstall lazily.
// A thread that exits with blocks in limbo hands them to a shared orphan
// list before its id is released, and every collect() sweeps that list.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/align.hpp"
#include "util/thread_registry.hpp"

namespace medley::smr {

class EBR {
 public:
  static constexpr std::uint64_t kQuiescent = ~0ULL;
  /// Retires between collection attempts (per thread).
  static constexpr int kCollectPeriod = 64;

  static EBR& instance();

  /// RAII epoch pin. Nestable; only the outermost pin publishes/retracts
  /// the reservation.
  class Guard {
   public:
    Guard();
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
  };

  /// Defer destruction of `p` (via `deleter(p)`) for two grace periods.
  void retire(void* p, void (*deleter)(void*));

  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p),
           [](void* q) { delete static_cast<T*>(q); });
  }

  /// Try to advance the epoch and free everything old enough (own limbo and
  /// orphans). Called every kCollectPeriod retires; tests call it directly.
  void collect();

  /// Drain: advance until the calling thread's limbo and the orphan list
  /// are empty (requires no other thread pinned). Test/teardown helper.
  void drain();

  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }
  /// Outstanding retired-but-unfreed blocks for the calling thread.
  std::size_t limbo_size() const;

 private:
  EBR();

  struct LimboItem {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  struct ThreadSlot {
    std::atomic<std::uint64_t> reservation{kQuiescent};
    int nesting{0};
    int retire_count{0};
    std::vector<LimboItem> limbo;
  };

  void enter();
  void exit();
  bool try_advance();
  void sweep(std::vector<LimboItem>& limbo);
  void sweep_orphans();
  void orphan(std::vector<LimboItem>& bag);  // move (and empty) onto orphans_

  ThreadSlot& my_slot();

  std::atomic<std::uint64_t> global_epoch_{2};  // start >0 so epoch-2 is valid
  util::Padded<ThreadSlot> slots_[util::ThreadRegistry::kMaxThreads];

  std::mutex orphan_mu_;            // guards orphans_
  std::vector<LimboItem> orphans_;  // limbo of exited threads
  std::atomic<std::size_t> orphan_count_{0};  // orphans_.size(), lock-free

  friend class Guard;
};

}  // namespace medley::smr
