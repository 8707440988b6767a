#pragma once
// CASObj<T>: the augmented atomic word of the paper (Fig. 1, Fig. 5).
//
// T must fit in 64 bits (pointer or integral): the cell stores
// {encode(T), counter} in one 128-bit atomic. The nbtc* methods implement
// the NBTC instrumentation: they detect installed descriptors and resolve
// them (helping or aborting the owner — eager contention management),
// track the speculation interval, and route critical CASes through the
// transaction's write set. The plain load/store/CAS methods are also
// descriptor-aware (they resolve, never observe, a speculative state) and
// are what cleanup code and non-transactional operations use.
//
// A CASObj is manager-agnostic: instrumentation keys off the calling
// thread's active TxDomain context (one descriptor per thread per domain),
// which is what lets structures registered with different TxManagers of a
// shared domain speculate inside one transaction.

#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>

#include "core/cas_cell.hpp"
#include "core/descriptor.hpp"
#include "core/tx_domain.hpp"
#include "core/tx_manager.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"

namespace medley::core {

template <typename T>
class CASObj {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>,
                "CASObj requires a word-sized trivially copyable type");

 public:
  CASObj() : cell_(0) {}
  explicit CASObj(T initial) : cell_(encode(initial)) {}

  // Not copyable: a CASObj's identity (address) is part of the protocol.
  CASObj(const CASObj&) = delete;
  CASObj& operator=(const CASObj&) = delete;

  // ---- NBTC-instrumented accessors ------------------------------------

  /// Critical load (paper Fig. 5 lines 5-17). Outside a transaction this
  /// degenerates to a descriptor-aware plain load.
  T nbtcLoad() {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) return load();
    if (c->read_only) {
      // Read-only mode: no descriptor of ours exists, no peer can doom
      // us, and arbitration has nothing to arbitrate — resolve foreign
      // descriptors like a plain load, and note the committed {value,
      // counter} pair so addToReadSet can log it for the end_ro check.
      for (;;) {
        util::U128 u = cell_.vc.load();
        if (CASCell::holds_desc(u)) {
          CASCell::desc_of(u)->try_finalize(&cell_, u);
          continue;
        }
        c->note_load(&cell_, u.lo, u.hi, u.lo);
        return decode(u.lo);
      }
    }
    TxDomain::self_abort_check(c);  // doomed? stop wasting work now
    Desc* mine = c->desc;
    for (;;) {
      util::U128 u = cell_.vc.load();
      if (CASCell::holds_desc(u)) {
        Desc* other = CASCell::desc_of(u);
        if (other == mine) {
          // Seeing a value we speculatively wrote earlier in this same
          // transaction starts the speculation interval (Def. 3).
          c->spec_interval = true;
          WriteEntry* e = mine->find_write(&cell_, c->begin_status);
          assert(e && "cell holds our descriptor but write entry missing");
          if (e != nullptr) {
            const std::uint64_t nv =
                e->new_val.load(std::memory_order_relaxed);
            c->note_load(&cell_, u.lo, u.hi, nv);
            return decode(nv);
          }
          continue;  // defensive in release builds
        }
        // Priority arbitration (KarmaCM): a younger managed transaction
        // yields to an older, still-preparing one instead of aborting it.
        if (TxDomain::arbitration_yields(mine, other)) {
          if (c->trace != nullptr)
            c->trace->emit(obs::TraceEvent::kArbitrationYield);
          c->domain->abort(c, AbortReason::Conflict);
        }
        // Same bounded grace as load(): the owner is usually about to
        // commit, and a stalled one is still finalized after it.
        grace(u);
        other->try_finalize(&cell_, u);
        TxDomain::self_abort_check(c);
        continue;
      }
      c->note_load(&cell_, u.lo, u.hi, u.lo);
      return decode(u.lo);
    }
  }

  /// Critical/ordinary CAS (paper Fig. 5 lines 22-41). `lin_pt` marks this
  /// as the operation's linearization point if it succeeds; `pub_pt` marks
  /// its publication point (starts the speculation interval).
  bool nbtcCAS(T expected, T desired, bool lin_pt, bool pub_pt) {
    TxManager::ThreadCtx* c = TxManager::active_ctx();
    if (c == nullptr) return CAS(expected, desired);
    if (c->read_only) {
      // A linearizing or publishing CAS is a write: the body was
      // mis-declared, and the executor re-runs it as a full transaction.
      if (lin_pt || pub_pt) throw ReadOnlyViolation();
      // A plain helping CAS (unlinking a node whose removal already
      // committed — any mark observed after descriptor resolution is a
      // committed mark) is legal and final exactly as outside any
      // transaction. It may rewrite a cell the read log already tracks,
      // in which case validation fails and the fallback re-walks the
      // cleaned list — same doom the full-transaction path accepts.
      return CAS(expected, desired);
    }
    TxDomain::self_abort_check(c);  // doomed? stop wasting work now
    Desc* mine = c->desc;
    const std::uint64_t exp = encode(expected);
    const std::uint64_t des = encode(desired);
    for (;;) {
      util::U128 u = cell_.vc.load();
      if (CASCell::holds_desc(u)) {
        Desc* other = CASCell::desc_of(u);
        if (other != mine) {
          if (TxDomain::arbitration_yields(mine, other)) {
            if (c->trace != nullptr)
              c->trace->emit(obs::TraceEvent::kArbitrationYield);
            c->domain->abort(c, AbortReason::Conflict);
          }
          other->try_finalize(&cell_, u);
          TxDomain::self_abort_check(c);
          continue;
        }
        // Our own speculative write: update it in place.
        c->spec_interval = true;
        WriteEntry* e = mine->find_write(&cell_, c->begin_status);
        assert(e && "cell holds our descriptor but write entry missing");
        if (e == nullptr) continue;
        if (e->new_val.load(std::memory_order_relaxed) != exp) return false;
        e->new_val.store(des, std::memory_order_relaxed);
        if (lin_pt) c->spec_interval = false;
        return true;
      }
      if (u.lo != exp) return false;
      if (pub_pt) c->spec_interval = true;
      if (c->spec_interval) {
        // Critical CAS: install the descriptor (counter goes odd).
        WriteEntry* e = mine->record_write(&cell_, u.lo, u.hi, des,
                                           c->begin_status);
        if (e == nullptr) c->domain->abort(c, AbortReason::Capacity);
        util::U128 expected128 = u;
        if (!cell_.vc.compare_exchange(
                expected128, util::U128{mine->self_encoded(), u.hi + 1})) {
          mine->retract_write(e);
          return false;  // caller's retry loop re-traverses (Fig. 5 l.37)
        }
        if (lin_pt) c->spec_interval = false;
        return true;
      }
      // Pre-speculation CAS: execute on the fly, bump counter by 2.
      util::U128 expected128 = u;
      if (cell_.vc.compare_exchange(expected128,
                                    util::U128{des, u.hi + 2})) {
        return true;
      }
      // Counter moved or a descriptor appeared: re-resolve and retry.
    }
  }

  // ---- plain (descriptor-aware) accessors ------------------------------

  /// Pauses a load (plain, or in a full transaction) waits for a
  /// descriptor to leave the cell before finalizing it: the owner is
  /// usually about to commit, and finalizing it while it prepares aborts
  /// it (most of a contended put's retries).
  static constexpr int kLoadGraceSpins = 32;

  /// Linearizable load that never observes a speculative state.
  T load() {
    for (;;) {
      util::U128 u = cell_.vc.load();
      if (!CASCell::holds_desc(u)) return decode(u.lo);
      grace(u);
      CASCell::desc_of(u)->try_finalize(&cell_, u);  // no-op once it left
    }
  }

  /// Unconditional store (CAS loop so the counter stays coherent).
  void store(T v) {
    const std::uint64_t val = encode(v);
    for (;;) {
      util::U128 u = cell_.vc.load();
      if (CASCell::holds_desc(u)) {
        CASCell::desc_of(u)->try_finalize(&cell_, u);
        continue;
      }
      util::U128 e = u;
      if (cell_.vc.compare_exchange(e, util::U128{val, u.hi + 2})) return;
    }
  }

  /// Plain CAS: fails only on a genuine value mismatch; retries through
  /// counter-only changes and resolves any descriptor it meets.
  bool CAS(T expected, T desired) {
    const std::uint64_t exp = encode(expected);
    const std::uint64_t des = encode(desired);
    for (;;) {
      util::U128 u = cell_.vc.load();
      if (CASCell::holds_desc(u)) {
        CASCell::desc_of(u)->try_finalize(&cell_, u);
        continue;
      }
      if (u.lo != exp) return false;
      util::U128 e = u;
      if (cell_.vc.compare_exchange(e, util::U128{des, u.hi + 2}))
        return true;
    }
  }

  CASCell* cell() { return &cell_; }

  /// Raw {value-or-desc, counter} snapshot (tests, diagnostics).
  util::U128 raw() const { return cell_.vc.load(); }

  // ---- encoding ---------------------------------------------------------

  static std::uint64_t encode(T v) noexcept {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<std::uint64_t>(v);
    } else if constexpr (sizeof(T) == 8) {
      return std::bit_cast<std::uint64_t>(v);
    } else {
      std::uint64_t out = 0;
      __builtin_memcpy(&out, &v, sizeof(T));
      return out;
    }
  }

  static T decode(std::uint64_t raw) noexcept {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<T>(raw);
    } else if constexpr (sizeof(T) == 8) {
      return std::bit_cast<T>(raw);
    } else {
      T out{};
      __builtin_memcpy(&out, &raw, sizeof(T));
      return out;
    }
  }

 private:
  /// Wait up to kLoadGraceSpins pauses for the descriptor seen in `u` to
  /// leave the cell.
  void grace(const util::U128& u) {
    for (int i = 0; i < kLoadGraceSpins && cell_.vc.load() == u; i++) {
      util::cpu_relax();
    }
  }

  CASCell cell_;
};

}  // namespace medley::core
