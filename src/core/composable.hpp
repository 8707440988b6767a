#pragma once
// Composable: base class of all transactional data structures (paper
// Fig. 1). Provides the transaction-aware allocation / reclamation /
// read-tracking / cleanup-deferral services the NBTC transform needs.
//
// All services degrade gracefully outside a transaction: addToReadSet is a
// no-op, addToCleanups runs the closure immediately, tNew/tDelete are plain
// new/delete, and tRetire goes straight to epoch-based reclamation. This is
// what lets one source transform serve both transactional and standalone
// uses (the TxOff configuration of Fig. 10 measures exactly this path).

#include <functional>
#include <utility>

#include "core/cas_obj.hpp"
#include "core/tx_manager.hpp"
#include "smr/ebr.hpp"

namespace medley::core {

class Composable {
 public:
  explicit Composable(TxManager* manager) : mgr(manager) {}
  virtual ~Composable() = default;

  /// Transaction metadata manager shared among all Composables that can
  /// appear in one transaction (paper Fig. 1 line 13).
  TxManager* mgr;

  using OpStarter = core::OpStarter;

 protected:
  /// Register the linearizing load of a read(-only) operation: the cell and
  /// the value the operation acted on. The {value, counter} pair recorded
  /// at load time (kept in the per-thread recent-load ring) joins the read
  /// set for commit-time validation.
  template <typename T>
  void addToReadSet(CASObj<T>* obj, T val) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) return;
    const std::uint64_t expected = CASObj<T>::encode(val);
    if (c->read_only) {
      // Read-only mode: log the {value, counter} pair locally instead of
      // in the (never-published) descriptor. Same ring-then-reread logic
      // as below, minus the own-descriptor clause — a read-only
      // transaction has no installed writes to overwrite.
      std::uint64_t lo, hi;
      if (const auto* r = c->find_recent(obj->cell(), expected)) {
        lo = r->raw_lo;
        hi = r->raw_hi;
      } else {
        util::U128 u = obj->cell()->vc.load();
        if (!CASCell::holds_desc(u) && u.lo == expected) {
          lo = u.lo;
          hi = u.hi;
        } else {
          lo = expected;
          hi = 1;  // odd counter never matches a committed value state
        }
      }
      c->ro_reads.push_back({obj->cell(), lo, hi});
      return;
    }
    std::uint64_t lo, hi;
    if (const auto* r = c->find_recent(obj->cell(), expected)) {
      lo = r->raw_lo;
      hi = r->raw_hi;
    } else {
      // The load aged out of the ring: re-read. If the cell still holds the
      // value the operation returned, the fresh pair is just as good (the
      // value is current *now*, and validation re-checks at commit). If the
      // cell holds *our own* descriptor speculating that value, record the
      // {descriptor, counter} pair — it validates for as long as we remain
      // installed, which is exactly until our own commit. Anything else:
      // poison the entry so commit-time validation fails — the
      // transaction's read is already stale.
      util::U128 u = obj->cell()->vc.load();
      if (!CASCell::holds_desc(u) && u.lo == expected) {
        lo = u.lo;
        hi = u.hi;
      } else if (CASCell::holds_desc(u) && CASCell::desc_of(u) == c->desc) {
        core::WriteEntry* e =
            c->desc->find_write(obj->cell(), c->begin_status);
        if (e != nullptr &&
            e->new_val.load(std::memory_order_relaxed) == expected) {
          lo = u.lo;
          hi = u.hi;
        } else {
          lo = expected;
          hi = 1;
        }
      } else {
        lo = expected;
        hi = 1;  // odd counter never matches a committed value state
      }
    }
    if (!c->desc->record_read(obj->cell(), lo, hi, c->begin_status)) {
      c->mgr->abort_internal(c, AbortReason::Capacity);
    }
  }

  /// addToReadSet for iteration-heavy operations (skiplist range/scan):
  /// skips cells this transaction already tracks in its dedup set, so a
  /// restarted walk (failed help-unlink under contention) does not
  /// re-register its whole footprint — read-set growth is unique links,
  /// not links x passes. Callers engage the mechanism with
  /// seedReadSetDedup() when a walk restarts; an uncontended first pass
  /// uses plain addToReadSet and pays nothing.
  ///
  /// Dropping a duplicate is exactly outcome-preserving, not merely
  /// sound: the earlier entry for the cell stays in the read set for the
  /// rest of the transaction, and cell counters are strictly monotonic, so
  /// at commit either both entries validate (the cell never moved — or
  /// only we moved it, which the own-overwrite clause accepts for both
  /// recorded pairs) or the earlier one already fails and dooms the
  /// transaction with or without the duplicate.
  template <typename T>
  void addToReadSetDedup(CASObj<T>* obj, T val) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) return;
    if (!c->note_dedup_read(obj->cell())) return;  // already registered
    addToReadSet(obj, val);
  }

  /// Seed the transaction's dedup set from every cell its read set
  /// already tracks. O(read set), paid only when a walk restarts; after
  /// this, addToReadSetDedup skips all of them.
  void seedReadSetDedup() {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) return;
    if (c->read_only) {
      for (const auto& r : c->ro_reads) c->dedup_reads.insert(r.cell);
      return;
    }
    c->desc->for_each_read(c->begin_status, [c](CASCell* cell) {
      c->dedup_reads.insert(cell);
    });
  }

  /// Abort the calling thread's transaction immediately (used by boosted
  /// operations for deadlock avoidance). Never returns.
  [[noreturn]] void abortTx(AbortReason r) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    c->mgr->abort_internal(c, r);
  }

  /// Defer post-linearization work (physical unlinks, helping, retirement)
  /// to transaction commit; outside a transaction, run it now.
  void addToCleanups(std::function<void()> f) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) {
      f();
    } else {
      c->cleanups.push_back(std::move(f));
    }
  }

  /// Transactional allocation: the block is reclaimed automatically if the
  /// transaction aborts.
  template <typename T, typename... Args>
  T* tNew(Args&&... args) {
    return tAdopt(new T(std::forward<Args>(args)...));
  }

  /// tNew for a block the caller constructed itself (e.g. a node whose
  /// tower shares its allocation): reclaimed the same way on abort, by
  /// `delete`, so T's own operator delete must match how it was made.
  template <typename T>
  T* tAdopt(T* p) {
    if (TxManager::ThreadCtx* c = TxManager::active_ctx()) {
      c->allocs.push_back(
          {p, [](void* q) { delete static_cast<T*>(q); }});
    }
    return p;
  }

  /// Delete a block this operation allocated but never published.
  template <typename T>
  void tDelete(T* p) {
    if (TxManager::ThreadCtx* c = TxManager::active_ctx()) {
      for (std::size_t i = c->allocs.size(); i-- > 0;) {
        if (c->allocs[i].ptr == p) {
          c->allocs.erase(c->allocs.begin() + static_cast<long>(i));
          break;
        }
      }
      // A stale helper may still walk cells inside the block; retire.
      smr::EBR::instance().retire(p);
    } else {
      delete p;
    }
  }

  /// Epoch-based safe retirement of an unlinked node. Inside a transaction
  /// the retirement is deferred to commit (the unlink is speculative until
  /// then); on abort it is discarded.
  template <typename T>
  void tRetire(T* p) {
    if (TxManager::ThreadCtx* c = TxManager::active_ctx()) {
      c->retires.push_back(
          {p, [](void* q) { delete static_cast<T*>(q); }});
    } else {
      smr::EBR::instance().retire(p);
    }
  }

  /// Retirement for *helping* unlinks inside shared traversal code (find /
  /// seek helpers). Exactly one thread's unlink CAS succeeds for a given
  /// node, and that thread retires it. Two cases:
  ///  - the unlink CAS installed speculatively (we are inside a
  ///    transaction's speculation interval): the unlink only becomes real
  ///    if the transaction commits, so retirement rides on the transaction
  ///    (discarded on abort, when the rollback re-links the node);
  ///  - otherwise the unlink already happened for real (the marked node
  ///    belongs to a previously *committed* removal) and the node goes
  ///    straight to EBR regardless of any surrounding transaction's fate.
  /// `spec_interval` after a successful nbtcCAS(..., false, false) is an
  /// exact proxy for which path the CAS took.
  template <typename T>
  void tRetireAtUnlink(T* p) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c != nullptr && c->spec_interval) {
      tRetire(p);
    } else {
      smr::EBR::instance().retire(p);
    }
  }
};

}  // namespace medley::core
