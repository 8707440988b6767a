#pragma once
// NBTC transform of Fraser's CAS-based lock-free skiplist (Fraser '03,
// ch. 4; the Herlihy–Shavit presentation). Map semantics, up to 20 levels
// (the paper's configuration).
//
// Linearization points:
//   insert : the CAS linking the new node at level 0 (lin = pub);
//            upper-level linking is post-linearization cleanup.
//   put    : absent key — as insert. Present key — an in-place update made
//            of two critical CASes in one descriptor: the node's level-0
//            link is re-written to its own value (pub; the counter bump
//            invalidates every reader that registered the link and
//            serializes against remove's mark), then the value cell is
//            CASed (lin). No allocation, tower work, retire or cleanup
//            (beyond retiring a replaced value box, see below). Outside a
//            transaction the pair runs as a one-op transaction.
//   remove : the CAS marking the victim's level-0 next pointer (lin = pub);
//            upper-level marks are benign pre-linearization CASes (they
//            cannot make the remove take effect and merely demote the
//            node), and physical unlinking + retirement is cleanup.
//   get    : the load of curr->next[0] observing curr unmarked (found), or
//            of preds[0]->next[0] observing the gap (absent). A found
//            value is read from the value cell AFTER that load; the link
//            stays the only registered evidence, which suffices because the
//            value cell only changes together with a bump of that link.
//
// Hash index (kHashed = true; the SkipHash alias): every node is also
// chained, Michael-style, into a hash bucket through one more link
// (`hnext`, ordered by key within the bucket, marked on removal), so a
// point operation reaches its node through the bucket instead of a
// descent. A node is live iff its level-0 link is unmarked, and the bucket
// link and level-0 link of a node change in the same transaction, so the
// two views agree at every committed state:
//   get/contains : a bucket probe; found — the node's level-0 link is
//            registered and the value read after it, as above; absent —
//            the bucket link that witnessed the gap is registered.
//   put    : present key — a bucket probe, then the same two CASes as
//            above: no descent and no allocation. Absent key — as insert.
//   insert : links the bucket (pub), then descends and links level 0
//            (lin), so the descriptor sits on the contended level-0 link
//            only from there to commit.
//   remove : marks the bucket link (pub), then the tower, then level 0
//            (lin). Its cleanup searches the bucket and runs one full
//            skiplist search, then retires the node.
// Every mutation of the hashed form runs in a transaction (a bare call is
// a one-op transaction), so no reader sees one list changed without the
// other. range/scan walk level 0 exactly as in the plain form.
//
// Values: a word-sized trivially copyable V lives in the node's CASObj
// value cell directly; any other V (std::string, ...) is held as a pointer
// to an immutable heap box. An update installs a fresh box and retires the
// replaced one through EBR at commit; a node frees its current box.
//
// Node layout: key, level, value cell, bucket link (hashed form only),
// then the tower next[0..level) in the same allocation, so a node costs
// one block.
//
// Retirement policy: only the remover retires a node, in its cleanup,
// after one complete search(k) call has ensured the node is unlinked from
// every level (helping searches unlink but never retire; in the hashed
// form the same holds for bucket probes). This differs from the
// single-level list, where the successful unlinker retires.

#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/medley.hpp"
#include "ds/marked_ptr.hpp"
#include "util/rng.hpp"
#include "util/thread_registry.hpp"

namespace medley::ds {

template <typename K, typename V, int kMaxLevel = 20, bool kHashed = false>
class FraserSkiplist : public core::Composable {
 public:
  /// `buckets` sizes the hash index of the hashed form (ignored otherwise).
  explicit FraserSkiplist(core::TxManager* manager,
                          std::size_t buckets = 1u << 16)
      : Composable(manager), head_(Node::make(K{}, Word{}, kMaxLevel)) {
    if constexpr (kHashed) {
      nbuckets_ = buckets;
      buckets_ = std::make_unique<Link[]>(buckets);
    }
  }

  ~FraserSkiplist() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = unmark(n->next(0).load());
      delete n;
      n = nx;
    }
  }

  std::optional<V> get(const K& k) {
    OpStarter op(mgr);
    Node* n = lookup(k);
    if (n == nullptr) return std::nullopt;
    return unbox(n->val.nbtcLoad());
  }

  /// Existence-only probe: same linearizing evidence as get() (the
  /// level-0 witness link joins the read set) without copying the value.
  bool contains(const K& k) {
    OpStarter op(mgr);
    return lookup(k) != nullptr;
  }

  bool insert(const K& k, const V& v) {
    if constexpr (kHashed) {
      if (core::TxManager::active_ctx() == nullptr) {
        return *medley::execute_tx(*mgr, [&] { return insert(k, v); }).value;
      }
    }
    OpStarter op(mgr);
    Pos pos;
    Node* node = nullptr;
    for (;;) {
      Node* curr = nullptr;
      Node* succ = nullptr;
      if (find_live(pos, k, curr, succ)) {
        if (node != nullptr) tDelete(node);
        addToReadSet(&curr->next(0), succ);
        return false;
      }
      if (node == nullptr) node = new_node(k, v);
      if (link_new(pos, node, k)) return true;
    }
  }

  /// Insert-or-update. Returns the previous value if the key was present.
  /// A present key is updated in place (see the header comment): one
  /// descent (a bucket probe in the hashed form) and two critical CASes,
  /// with the node, its tower and its neighbours untouched.
  std::optional<V> put(const K& k, const V& v) {
    if (core::TxManager::active_ctx() == nullptr) {
      // The two CASes of an update must land atomically.
      return *medley::execute_tx(*mgr, [&] { return put(k, v); }).value;
    }
    OpStarter op(mgr);
    Pos pos;
    Node* node = nullptr;
    for (;;) {
      Node* curr = nullptr;
      Node* succ = nullptr;
      if (!find_live(pos, k, curr, succ)) {
        if (node == nullptr) node = new_node(k, v);
        if (link_new(pos, node, k)) return std::nullopt;
        continue;
      }
      if (node != nullptr) {
        tDelete(node);
        node = nullptr;
      }
      // Critical CAS 1: re-write the level-0 link to its own value. Fails
      // (re-find) if a remove marked it since find.
      if (!curr->next(0).nbtcCAS(succ, succ, /*lin=*/false, /*pub=*/true)) {
        continue;
      }
      // While our descriptor holds the link, no other put or remove of
      // this key can touch the value cell without first aborting us; a
      // failed CAS 2 therefore means we were aborted, and the re-find's
      // first load throws.
      const Word old = curr->val.nbtcLoad();
      const Word fresh = new_word(v);
      if (curr->val.nbtcCAS(old, fresh, /*lin=*/true, /*pub=*/false)) {
        std::optional<V> res = unbox(old);
        if constexpr (kBoxed) tRetire(old);
        return res;
      }
      if constexpr (kBoxed) tDelete(fresh);
    }
  }

  std::optional<V> remove(const K& k) {
    if constexpr (kHashed) {
      if (core::TxManager::active_ctx() == nullptr) {
        return *medley::execute_tx(*mgr, [&] { return remove(k); }).value;
      }
    }
    OpStarter op(mgr);
    Pos pos;
    for (;;) {
      Node* victim = nullptr;
      Node* succ = nullptr;
      if (!find_live(pos, k, victim, succ)) {
        register_gap(pos);
        return std::nullopt;
      }
      if constexpr (kHashed) {
        // Publish: mark the bucket link. Probes skip the node once this
        // commits, together with the level-0 mark below.
        if (!victim->hnext.nbtcCAS(pos.bnext, mark(pos.bnext), /*lin=*/false,
                                   /*pub=*/true)) {
          continue;
        }
      }
      // Demote: mark every upper level, top down (benign helping CASes;
      // critical in the hashed form, whose bucket mark opened the
      // speculation interval).
      for (int lvl = victim->level - 1; lvl >= 1; lvl--) {
        Node* nx = victim->next(lvl).nbtcLoad();
        while (!is_marked(nx)) {
          victim->next(lvl).nbtcCAS(nx, mark(nx), false, false);
          nx = victim->next(lvl).nbtcLoad();
        }
      }
      // Linearize: mark level 0.
      Node* nx0 = victim->next(0).nbtcLoad();
      while (!is_marked(nx0)) {
        if (victim->next(0).nbtcCAS(nx0, mark(nx0), /*lin=*/true,
                                    /*pub=*/true)) {
          // The mark froze the value cell: a put must re-write the
          // unmarked link before it may touch the value.
          V res = unbox(victim->val.nbtcLoad());
          addToCleanups([this, victim, k] {
            Pos p;
            if constexpr (kHashed) probe(p, k);  // unlinks victim's bucket link
            find(p, k);  // one full search unlinks victim everywhere
            tRetire(victim);
          });
          return res;
        }
        nx0 = victim->next(0).nbtcLoad();
      }
      // Lost the race to another remover: re-evaluate from scratch.
    }
  }

  /// Ordered range query: all live entries with lo <= key <= hi, ascending.
  /// Transactional callers get an atomic snapshot: every level-0 link from
  /// the predecessor of lo through the first key beyond hi joins the read
  /// set, so any insert, remove or update inside the window between our
  /// traversal and commit fails validation (an insert rewrites a covered
  /// next[0], a remove marks one, an update re-writes one in place).
  /// Read-set capacity bounds the window (~4K entries; overflow is a
  /// retryable Capacity abort).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    return scan_impl(
        lo, [&hi](const K& k) { return !(hi < k); },
        std::numeric_limits<std::size_t>::max());
  }

  /// Ordered scan: up to `limit` live entries with key >= lo, ascending.
  /// Same transactional evidence as range() for the visited prefix.
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit) {
    return scan_impl(lo, [](const K&) { return true; }, limit);
  }

  /// Quiescent scans (tests/diagnostics). The hashed form counts the live
  /// nodes of its buckets (the point-operation view); keys_slow() and the
  /// plain form's count walk level 0.
  std::size_t size_slow() {
    OpStarter op(mgr);
    std::size_t n = 0;
    if constexpr (kHashed) {
      for (std::size_t b = 0; b < nbuckets_; b++) {
        for (Node* cur = buckets_[b].load(); cur != nullptr;) {
          Node* raw = cur->hnext.load();
          if (!is_marked(raw)) n++;
          cur = unmark(raw);
        }
      }
      return n;
    }
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (!is_marked(cur->next(0).load())) n++;
    }
    return n;
  }

  std::vector<K> keys_slow() {
    OpStarter op(mgr);
    std::vector<K> out;
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (!is_marked(cur->next(0).load())) out.push_back(cur->key);
    }
    return out;
  }

  /// Structural audit for property tests: level-0 keys strictly ascending,
  /// and every node linked at level i>0 is also reachable at level 0.
  bool invariants_hold_slow() {
    OpStarter op(mgr);
    // Strict ascent at level 0.
    Node* prev = nullptr;
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (prev != nullptr && !(prev->key < cur->key)) return false;
      prev = cur;
    }
    // Upper-level sortedness.
    for (int lvl = 1; lvl < kMaxLevel; lvl++) {
      Node* p = nullptr;
      for (Node* cur = unmark(head_->next(lvl).load()); cur != nullptr;
           cur = unmark(cur->next(lvl).load())) {
        if (p != nullptr && !(p->key < cur->key)) return false;
        p = cur;
      }
    }
    return true;
  }

  /// Quiescent audit of the hash index: every live level-0 node sits in
  /// exactly one bucket, its own, and no bucket holds a live node that
  /// level 0 lacks (or a node whose bucket link and level-0 link disagree
  /// on liveness).
  bool buckets_consistent_slow()
    requires kHashed
  {
    OpStarter op(mgr);
    std::set<Node*> live0;
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (!is_marked(cur->next(0).load())) live0.insert(cur);
    }
    std::set<Node*> seen;
    for (std::size_t b = 0; b < nbuckets_; b++) {
      for (Node* cur = buckets_[b].load(); cur != nullptr;) {
        Node* raw = cur->hnext.load();
        if (!is_marked(raw)) {
          if (bucket_of(cur->key) != b || !seen.insert(cur).second ||
              live0.count(cur) == 0) {
            return false;
          }
        }
        cur = unmark(raw);
      }
    }
    return seen == live0;
  }

 private:
  template <typename T>
  using CASObj = core::CASObj<T>;

  /// Boxed values: anything CASObj cannot hold in its word.
  static constexpr bool kBoxed =
      !(sizeof(V) <= 8 && std::is_trivially_copyable_v<V>);
  struct Box {
    explicit Box(const V& x) : v(x) {}
    const V v;
  };
  /// What the value cell holds: V itself, or its immutable box.
  using Word = std::conditional_t<kBoxed, Box*, V>;

  static V unbox(Word w) {
    if constexpr (kBoxed) {
      return w->v;
    } else {
      return w;
    }
  }

  struct Node;
  using Link = CASObj<Node*>;
  struct NoLink {};

  struct Node {
    K key;
    int level;
    CASObj<Word> val;
    /// Next node of the same hash bucket (hashed form; empty otherwise).
    [[no_unique_address]] std::conditional_t<kHashed, Link, NoLink> hnext;
    // next[0..level) follows in the same allocation.

    /// One allocation for the header and the tower; the node owns w.
    static Node* make(const K& k, Word w, int lvl) {
      void* mem = nullptr;
      try {
        mem = ::operator new(sizeof(Node) +
                             static_cast<std::size_t>(lvl) * sizeof(Link));
        return ::new (mem) Node(k, w, lvl);
      } catch (...) {
        ::operator delete(mem);
        if constexpr (kBoxed) delete w;
        throw;
      }
    }
    static void* operator new(std::size_t) = delete;
    static void operator delete(void* p) { ::operator delete(p); }

    ~Node() {
      if constexpr (kBoxed) delete val.load();
    }

    Link& next(int i) {
      return std::launder(reinterpret_cast<Link*>(this + 1))[i];
    }

   private:
    Node(const K& k, Word w, int lvl) : key(k), level(lvl), val(w) {
      for (int i = 0; i < lvl; i++) ::new (&next(i)) Link();
    }
  };
  static_assert(std::is_trivially_destructible_v<Link>);
  static_assert(alignof(Node) % alignof(Link) == 0,
                "the tower must start aligned right after the header");
  static_assert(alignof(Node) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  struct Pos {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    Node* succ0_next = nullptr;  // raw (unmarked) next of succs[0] if found
    // Hashed form: k's bucket position, as Michael's find leaves it.
    Link* bprev = nullptr;
    Node* bcurr = nullptr;
    Node* bnext = nullptr;
  };

  static int random_level() {
    thread_local util::Xoshiro256 rng(
        0x9e3779b97f4a7c15ULL ^
        static_cast<std::uint64_t>(util::ThreadRegistry::tid() + 1) *
            0x2545f4914f6cdd1dULL);
    int lvl = 1;
    while (lvl < kMaxLevel && (rng.next() & 1)) lvl++;
    return lvl;
  }

  /// A value cell's content for v: v itself, or a transactionally
  /// allocated box (reclaimed if the transaction aborts).
  Word new_word(const V& v) {
    if constexpr (kBoxed) {
      return tNew<Box>(v);
    } else {
      return v;
    }
  }

  /// A fresh unpublished node (reclaimed if the transaction aborts).
  Node* new_node(const K& k, const V& v) {
    if constexpr (kBoxed) {
      return tAdopt(Node::make(k, new Box(v), random_level()));
    } else {
      return tAdopt(Node::make(k, v, random_level()));
    }
  }

  /// Publish `node` at the position find_live() left in `pos`. False: the
  /// gap changed, re-find. The hashed form links the bucket gap first
  /// (pub), then descends and links level 0.
  bool link_new(Pos& pos, Node* node, const K& k) {
    if constexpr (kHashed) {
      node->hnext.store(pos.bcurr);
      if (!pos.bprev->nbtcCAS(pos.bcurr, node, /*lin=*/false, /*pub=*/true)) {
        return false;
      }
      do {
        // While we hold k's bucket gap no other node of k can turn live,
        // so level 0 cannot hold one; retry rather than link a duplicate.
        if (find(pos, k)) abortTx(core::AbortReason::Conflict);
      } while (!link_level0(pos, node, k));
      return true;
    } else {
      return link_level0(pos, node, k);
    }
  }

  /// Link `node` between pos's level-0 pred and succ (insert's lin CAS);
  /// upper levels are linked by a commit-time cleanup. False: the gap
  /// changed, re-find.
  bool link_level0(Pos& pos, Node* node, const K& k) {
    for (int i = 0; i < node->level; i++) node->next(i).store(pos.succs[i]);
    if (!pos.preds[0]->next(0).nbtcCAS(pos.succs[0], node, /*lin=*/true,
                                       /*pub=*/true)) {
      return false;
    }
    if (node->level > 1) {
      addToCleanups([this, node, k] { link_upper(node, k); });
    }
    return true;
  }

  /// k's live node: `curr` and its unmarked level-0 successor `succ`.
  /// False: k is absent, and `pos` holds where a new node goes (the plain
  /// form's preds/succs, the hashed form's bucket gap) and the evidence
  /// register_gap() registers.
  bool find_live(Pos& pos, const K& k, Node*& curr, Node*& succ) {
    if constexpr (kHashed) {
      for (;;) {
        if (!probe(pos, k)) return false;
        curr = pos.bcurr;
        succ = curr->next(0).nbtcLoad();
        if (!is_marked(succ)) return true;
        // Removed since the probe; the re-probe unlinks it from the bucket.
      }
    } else {
      if (!find(pos, k)) return false;
      curr = pos.succs[0];
      succ = pos.succ0_next;
      return true;
    }
  }

  /// Register the link that witnessed k absent after find_live().
  void register_gap(Pos& pos) {
    if constexpr (kHashed) {
      addToReadSet(pos.bprev, pos.bcurr);
    } else {
      addToReadSet(&pos.preds[0]->next(0), pos.succs[0]);
    }
  }

  /// get/contains: k's live node with its level-0 link registered, or
  /// null with the gap registered.
  Node* lookup(const K& k) {
    Pos pos;
    Node* curr = nullptr;
    Node* succ = nullptr;
    if (find_live(pos, k, curr, succ)) {
      addToReadSet(&curr->next(0), succ);
      return curr;
    }
    register_gap(pos);
    return nullptr;
  }

  std::size_t bucket_of(const K& k) const {
    return std::hash<K>{}(k) % nbuckets_;
  }

  /// Michael's search of k's bucket (hashed form): leaves bprev, bcurr,
  /// bnext around the first node with key >= k, unlinking marked nodes on
  /// the way (restarting from the bucket head when an unlink CAS fails).
  /// No retirement here — the remover retires after its own probe and
  /// search. Returns true iff bcurr holds k.
  bool probe(Pos& pos, const K& k) {
  retry:
    Link* prev = &buckets_[bucket_of(k)];
    Node* curr = prev->nbtcLoad();
    for (;;) {
      if (curr == nullptr) {
        pos.bprev = prev;
        pos.bcurr = nullptr;
        pos.bnext = nullptr;
        return false;
      }
      Node* raw = curr->hnext.nbtcLoad();
      if (is_marked(raw)) {
        if (!prev->nbtcCAS(curr, unmark(raw), false, false)) goto retry;
        curr = unmark(raw);
        continue;
      }
      if (!(curr->key < k)) {
        pos.bprev = prev;
        pos.bcurr = curr;
        pos.bnext = raw;
        return curr->key == k;
      }
      prev = &curr->hnext;
      curr = raw;
    }
  }

  /// Fraser's search: compute preds/succs at every level for key k,
  /// unlinking marked nodes encountered on the path (restarting from the
  /// top when an unlink CAS fails). Returns true iff succs[0] holds k.
  bool find(Pos& pos, const K& k) {
  retry:
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; lvl--) {
      Node* curr = pred->next(lvl).nbtcLoad();
      // A marked value here means pred itself was deleted while we were
      // descending from the level above: restart from the head.
      if (is_marked(curr)) goto retry;
      for (;;) {
        if (curr == nullptr) break;
        Node* raw = curr->next(lvl).nbtcLoad();
        if (is_marked(raw)) {
          // curr is logically deleted at this level: help unlink. No
          // retirement here — the remover retires after its own search.
          if (!pred->next(lvl).nbtcCAS(curr, unmark(raw), false, false)) {
            goto retry;
          }
          curr = unmark(raw);
          continue;
        }
        if (curr->key < k) {
          pred = curr;
          curr = raw;
          continue;
        }
        if (lvl == 0) pos.succ0_next = raw;
        break;
      }
      pos.preds[lvl] = pred;
      pos.succs[lvl] = curr;
    }
    return pos.succs[0] != nullptr && pos.succs[0]->key == k;
  }

  /// Shared body of range()/scan(): walk level 0 from the first key >= lo,
  /// collecting live entries while `in_range(key)` holds and the limit is
  /// unspent. Marked nodes encountered mid-walk are helped out exactly as
  /// in find() — including our own speculative removals, whose unlink CAS
  /// promotes into the transaction's write set — and a failed unlink
  /// restarts the walk from scratch (discarding the partial collection).
  /// Entries registered by an abandoned pass stay in the read set; they
  /// can only cause a spurious validation abort, never an unsound commit.
  /// Footprint tuning (YCSB-E): an uncontended walk registers through
  /// plain addToReadSet and pays nothing extra; the first RESTART engages
  /// dedup — seeding the per-transaction registered-cell set from the
  /// read set, then routing registrations through addToReadSetDedup — so
  /// re-walked links are not registered again and the read set grows as
  /// unique links, not links x passes. (A 4K-entry read set otherwise
  /// tolerates only ~read_cap/window_size passes before a spurious
  /// Capacity abort.)
  template <typename InRange>
  std::vector<std::pair<K, V>> scan_impl(const K& lo, InRange&& in_range,
                                         std::size_t limit) {
    OpStarter op(mgr);
    std::vector<std::pair<K, V>> out;
    bool dedup = false;
    auto reg = [&](CASObj<Node*>* cell, Node* val) {
      if (dedup) {
        addToReadSetDedup(cell, val);
      } else {
        addToReadSet(cell, val);
      }
    };
    for (;;) {
      out.clear();
      Pos pos;
      find(pos, lo);
      CASObj<Node*>* pred_cell = &pos.preds[0]->next(0);
      Node* curr = pos.succs[0];
      // Entry evidence: nothing sits between pred(lo) and the first
      // candidate (pins absence for an empty result, too).
      reg(pred_cell, curr);
      bool restart = false;
      while (curr != nullptr && out.size() < limit && in_range(curr->key)) {
        Node* raw = curr->next(0).nbtcLoad();
        if (is_marked(raw)) {
          // curr is logically deleted: help unlink it past pred_cell (no
          // retirement — the remover retires after its own search).
          if (!pred_cell->nbtcCAS(curr, unmark(raw), false, false)) {
            restart = true;
            break;
          }
          // Inside a transaction, a *pre-speculation* help just rewrote a
          // cell this transaction already registered (pred_cell is always
          // in the read set by now), so commit-time validation can no
          // longer pass. Abort here — the retry policy re-runs against
          // the cleaned list — rather than complete a doomed walk. Within speculation
          // the CAS joined our write set instead and validation accepts
          // the own-descriptor overwrite: keep walking.
          if (auto* c = core::TxManager::active_ctx();
              c != nullptr && !c->spec_interval) {
            c->mgr->validateReads();
          }
          curr = unmark(raw);
          continue;
        }
        reg(&curr->next(0), raw);  // witnesses curr live + successor
        out.emplace_back(curr->key, unbox(curr->val.nbtcLoad()));
        pred_cell = &curr->next(0);
        curr = raw;
      }
      if (!restart) return out;
      if (!dedup) {
        seedReadSetDedup();
        dedup = true;
      }
    }
  }

  /// Post-linearization cleanup of insert: link `node` at levels 1..h-1.
  /// Abandons a level (and the rest) as soon as the node is found marked.
  void link_upper(Node* node, const K& k) {
    bool abandoned = false;
    for (int lvl = 1; lvl < node->level && !abandoned; lvl++) {
      for (;;) {
        Pos pos;
        find(pos, k);
        Node* cur = node->next(lvl).load();
        if (is_marked(cur) || pos.succs[0] != node) {
          abandoned = true;  // node being/been removed: stop helping it up
          break;
        }
        if (cur != pos.succs[lvl] &&
            !node->next(lvl).CAS(cur, pos.succs[lvl])) {
          abandoned = true;  // concurrently marked
          break;
        }
        if (pos.preds[lvl]->next(lvl).CAS(pos.succs[lvl], node)) break;
        // Predecessor moved: re-find and retry this level.
      }
    }
    // Fraser's closing check: a concurrent remove may have finished its
    // unlinking search *before* one of our tower links landed, leaving the
    // (already retired) node reachable at that level. If the node is
    // marked, run one more search — it unlinks whatever we linked, and it
    // happens before our EBR guard releases, i.e. before the node can be
    // freed.
    if (is_marked(node->next(0).load())) {
      Pos pos;
      find(pos, k);
    }
  }

  Node* head_;
  std::size_t nbuckets_ = 0;        // hashed form only
  std::unique_ptr<Link[]> buckets_;  // hashed form only
};

/// The skip hash: a Fraser skiplist whose nodes are also chained into hash
/// buckets, so point operations skip the descent (see the header comment).
template <typename K, typename V>
using SkipHash = FraserSkiplist<K, V, 20, /*kHashed=*/true>;

}  // namespace medley::ds
