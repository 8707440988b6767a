#include "smr/ebr.hpp"

namespace medley::smr {

EBR& EBR::instance() {
  static EBR ebr;
  return ebr;
}

EBR::EBR() {
  // An exiting thread orphans its limbo before its id is released.
  util::ThreadRegistry::on_release(
      [](int tid) { instance().orphan(instance().slots_[tid]->limbo); });
}

void EBR::orphan(std::vector<LimboItem>& bag) {
  if (bag.empty()) return;
  std::lock_guard<std::mutex> lk(orphan_mu_);
  orphans_.insert(orphans_.end(), bag.begin(), bag.end());
  orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
  bag.clear();
}

EBR::ThreadSlot& EBR::my_slot() {
  return *slots_[util::ThreadRegistry::tid()];
}

void EBR::enter() {
  ThreadSlot& s = my_slot();
  if (s.nesting++ == 0) {
    // The reservation must be globally visible before any subsequent load
    // of shared structure memory, hence seq_cst (a release store could be
    // reordered after the traversal's loads).
    s.reservation.store(global_epoch_.load(std::memory_order_relaxed),
                        std::memory_order_seq_cst);
  }
}

void EBR::exit() {
  ThreadSlot& s = my_slot();
  if (--s.nesting == 0) {
    s.reservation.store(kQuiescent, std::memory_order_release);
  }
}

EBR::Guard::Guard() { EBR::instance().enter(); }
EBR::Guard::~Guard() { EBR::instance().exit(); }

void EBR::retire(void* p, void (*deleter)(void*)) {
  ThreadSlot& s = my_slot();
  s.limbo.push_back(
      {p, deleter, global_epoch_.load(std::memory_order_acquire)});
  if (++s.retire_count >= kCollectPeriod) {
    s.retire_count = 0;
    collect();
  }
}

bool EBR::try_advance() {
  const std::uint64_t cur = global_epoch_.load(std::memory_order_acquire);
  const int n = util::ThreadRegistry::max_tid();
  for (int i = 0; i < n; i++) {
    const std::uint64_t r =
        slots_[i]->reservation.load(std::memory_order_acquire);
    if (r != kQuiescent && r < cur) return false;  // straggler pins cur-1
  }
  std::uint64_t expected = cur;
  global_epoch_.compare_exchange_strong(expected, cur + 1,
                                        std::memory_order_acq_rel);
  return true;  // someone advanced (us or a peer)
}

void EBR::sweep(std::vector<LimboItem>& limbo) {
  const std::uint64_t cur = global_epoch_.load(std::memory_order_acquire);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < limbo.size(); i++) {
    if (limbo[i].epoch + 2 <= cur) {
      limbo[i].deleter(limbo[i].ptr);
    } else {
      limbo[kept++] = limbo[i];
    }
  }
  limbo.resize(kept);
}

void EBR::sweep_orphans() {
  if (orphan_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<LimboItem> bag;
  {
    std::unique_lock<std::mutex> lk(orphan_mu_, std::try_to_lock);
    if (!lk.owns_lock()) return;  // a peer is sweeping them now
    bag.swap(orphans_);
    orphan_count_.store(0, std::memory_order_relaxed);
  }
  sweep(bag);  // outside the lock: a deleter may retire in turn
  orphan(bag);
}

void EBR::collect() {
  try_advance();
  sweep(my_slot().limbo);
  sweep_orphans();
}

void EBR::drain() {
  // Two successful advances guarantee everything currently in limbo ages out
  // (provided no other thread is pinned, which is the caller's contract).
  for (int i = 0; i < 4 && (!my_slot().limbo.empty() || orphan_count_ != 0);
       i++) {
    collect();
  }
}

std::size_t EBR::limbo_size() const {
  return const_cast<EBR*>(this)->my_slot().limbo.size();
}

}  // namespace medley::smr
