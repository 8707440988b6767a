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
// linked, through one more link (`hnext`, marked on removal), into one
// split-ordered list (Shalev & Shavit, "Split-ordered lists", JACM 2006):
// nodes sorted by bit-reversed hash, then by key. A table of 2^i bucket
// cells indexes that list. Bucket b's cell is itself b's sentinel: list
// links name it by a tagged index, and it is linked lazily, on first
// touch, right before the nodes whose hash ends in b's i low bits.
// Doubling the table changes only its size; no node moves, and a probe
// that read a stale, smaller size starts from a parent bucket's sentinel,
// which precedes the same nodes. The table starts at the constructor's
// `buckets`, rounded up to a power of two, and doubles once committed
// inserts minus committed removes (counted by their cleanups) exceed
// kMaxLoad per bucket. A node is live iff its level-0 link is unmarked,
// and the hash link and level-0 link of a node change in the same
// transaction, so the two views agree at every committed state:
//   get/contains : a bucket probe; found — the node's level-0 link is
//            registered and the value read after it, as above; absent —
//            the hash link that witnessed the gap is registered.
//   put    : present key — a bucket probe, then the same two CASes as
//            above: no descent and no allocation. Absent key — as insert.
//   insert : links the hash gap (pub), then descends and links level 0
//            (lin), so the descriptor sits on the contended level-0 link
//            only from there to commit.
//   remove : marks the hash link (pub), then the tower, then level 0
//            (lin). Its cleanup probes the bucket and runs one full
//            skiplist search, then retires the node.
//   range/scan : a probe for lo; present with an unmarked level-0 link —
//            the walk enters level 0 at lo's node, whose registered link
//            witnesses it live (no key lies between lo and itself, so no
//            predecessor evidence is needed). An absent lo or a marked node
//            pays that probe and then the plain form's descent; a restart
//            descends at once. A caller that knows lo is absent (a sharded
//            store reading a shard lo does not route to) passes
//            ScanEntry::kDescend and skips the probe.
// Every mutation of the hashed form runs in a transaction (a bare call is
// a one-op transaction), so no reader sees one list changed without the
// other. Sentinels are structure, not state: a walk over committed links
// links one with plain descriptor-aware CASes, which take effect at once
// whatever the caller's fate; where the link to CAS holds the caller's
// own descriptor, it gives up and the caller probes from the parent.
// Towers are thinner than the plain form's (p = 1/4, not 1/2): point
// operations and ordered reads enter through the hash, so towers only
// position inserts.
//
// Values: a word-sized trivially copyable V lives in the node's CASObj
// value cell directly; any other V (std::string, ...) is held as a pointer
// to an immutable heap box. An update installs a fresh box and retires the
// replaced one through EBR at commit; a node frees its current box.
//
// Node layout: key, level, value cell, hash link (hashed form only),
// then the tower next[0..level) in the same allocation, so a node costs
// one block.
//
// Retirement policy: only the remover retires a node, in its cleanup,
// after one complete search(k) call has ensured the node is unlinked from
// every level (helping searches unlink but never retire; in the hashed
// form the same holds for bucket probes and sentinel links). This differs
// from the single-level list, where the successful unlinker retires.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
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

/// How an ordered read (range/scan) of the hashed form reaches its first
/// key. kProbe probes lo's bucket and, when lo is present, enters level 0
/// at its node; an absent lo then pays that probe AND the full descent.
/// kDescend descends at once, for a caller that knows lo is absent — a
/// sharded store reading a shard that lo does not route to. The plain
/// form always descends.
enum class ScanEntry { kProbe, kDescend };

template <typename K, typename V, int kMaxLevel = 20, bool kHashed = false>
class FraserSkiplist : public core::Composable {
 public:
  /// `buckets` is the initial size of the hashed form's index, rounded up
  /// to a power of two; the index doubles as keys accumulate (ignored by
  /// the plain form).
  explicit FraserSkiplist(core::TxManager* manager,
                          std::size_t buckets = 1u << 16)
      : Composable(manager), head_(Node::make(K{}, Word{}, kMaxLevel)) {
    if constexpr (kHashed) {
      table_.base_log = std::bit_width(std::bit_ceil(
                      std::clamp<std::size_t>(buckets, 1, kMaxBuckets))) -
                  1;
      table_.size.store(std::size_t{1} << table_.base_log);
      bucket(0).store(nullptr);  // bucket 0's sentinel heads the list
    }
  }

  ~FraserSkiplist() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* nx = unmark(n->next(0).load());
      delete n;
      n = nx;
    }
    if constexpr (kHashed) {
      for (std::size_t j = 0; j < kSegments; j++) {
        if (Link* seg = table_.segs[j].load()) {
          ::operator delete(seg, std::align_val_t{alignof(Link)});
        }
      }
    }
  }

  /// Committed keys per bucket past which the hashed form's table doubles.
  static constexpr std::int64_t kMaxLoad = 8;

  /// Bytes of a node of tower height `level` (tests pin the layout).
  static std::size_t node_bytes(int level) { return Node::bytes(level); }

  /// The hashed form's current bucket count.
  std::size_t bucket_count() const
    requires kHashed
  {
    return table_.size.load();
  }

  /// The bucket k belongs to in a table of `size` (a power of two)
  /// buckets; tests pick keys by it.
  static std::size_t bucket_of_key(const K& k, std::size_t size)
    requires kHashed
  {
    return bucket_of(node_order(k), size);
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
            if constexpr (kHashed) {
              probe(p, k);  // unlinks victim's hash link
              table_.keys.fetch_sub(1, std::memory_order_relaxed);
            }
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
  /// `entry` picks how the hashed form reaches lo (see ScanEntry).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi,
                                     ScanEntry entry = ScanEntry::kProbe) {
    return scan_impl(
        lo, [&hi](const K& k) { return !(hi < k); },
        std::numeric_limits<std::size_t>::max(), entry);
  }

  /// Ordered scan: up to `limit` live entries with key >= lo, ascending.
  /// Same transactional evidence as range() for the visited prefix.
  std::vector<std::pair<K, V>> scan(const K& lo, std::size_t limit,
                                    ScanEntry entry = ScanEntry::kProbe) {
    return scan_impl(lo, [](const K&) { return true; }, limit, entry);
  }

  /// Quiescent scans (tests/diagnostics). The hashed form counts the live
  /// nodes of its split-ordered list (the point-operation view);
  /// keys_slow() and the plain form's count walk level 0.
  std::size_t size_slow() {
    OpStarter op(mgr);
    std::size_t n = 0;
    if constexpr (kHashed) {
      walk_hash_slow([&n](Node* e, Node* raw) {
        if (!is_sentinel(e) && !is_marked(raw)) n++;
      });
      return n;
    }
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (!is_marked(cur->next(0).load())) n++;
    }
    return n;
  }

  /// Quiescent count of linked sentinels, bucket 0's included (tests):
  /// a bucket's sentinel is linked on the first probe of that bucket.
  std::size_t sentinels_slow()
    requires kHashed
  {
    OpStarter op(mgr);
    std::size_t n = 1;
    walk_hash_slow([&n](Node* e, Node*) {
      if (is_sentinel(e)) n++;
    });
    return n;
  }

  /// Quiescent count of the live nodes of the fullest bucket at the
  /// current table size (tests): a probe of a linked bucket walks past at
  /// most that many nodes.
  std::size_t max_bucket_load_slow()
    requires kHashed
  {
    OpStarter op(mgr);
    const std::size_t size = table_.size.load();
    std::vector<std::size_t> load(size);
    walk_hash_slow([&load, size](Node* e, Node* raw) {
      if (!is_sentinel(e) && !is_marked(raw)) {
        load[bucket_of(node_order(e->key), size)]++;
      }
    });
    return *std::max_element(load.begin(), load.end());
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

  /// Quiescent audit of the hash index. The split-ordered list is strictly
  /// sorted; it holds every linked sentinel, each in place, and no other;
  /// no sentinel is left half linked; its live nodes are exactly level 0's
  /// live nodes (so no node's hash link and level-0 link disagree on
  /// liveness); and each live node lies after the sentinel a probe of its
  /// bucket starts from, so that probe reaches it.
  bool buckets_consistent_slow()
    requires kHashed
  {
    OpStarter op(mgr);
    std::set<Node*> live0;
    for (Node* cur = unmark(head_->next(0).load()); cur != nullptr;
         cur = unmark(cur->next(0).load())) {
      if (!is_marked(cur->next(0).load())) live0.insert(cur);
    }
    // Walk from bucket 0's sentinel (position 0, order 0).
    std::map<std::size_t, std::size_t> sentinel_at{{0, 0}};  // bucket -> pos
    std::map<Node*, std::size_t> live_at;                     // node -> pos
    std::size_t at = 1;
    std::uint64_t prev_order = 0;
    Node* prev = nullptr;  // the previous element, if a node
    for (Node* cur = bucket(0).load(); cur != nullptr; at++) {
      if (is_sentinel(cur)) {
        const std::size_t b = sentinel_index(cur);
        if (!(prev_order < sentinel_order(b)) ||
            !sentinel_at.emplace(b, at).second) {
          return false;
        }
        prev_order = sentinel_order(b);
        prev = nullptr;
        cur = bucket(b).load();
        if (!is_linked(bits(cur))) return false;
        continue;
      }
      const std::uint64_t order = node_order(cur->key);
      if (order < prev_order ||
          (order == prev_order &&
           (prev == nullptr || !(prev->key < cur->key)))) {
        return false;
      }
      prev_order = order;
      prev = cur;
      Node* raw = cur->hnext.load();
      if (!is_marked(raw) && (live0.count(cur) == 0 ||
                              !live_at.emplace(cur, at).second)) {
        return false;
      }
      cur = unmark(raw);
    }
    if (live_at.size() != live0.size()) return false;
    // Every bucket cell's state matches the list.
    const std::size_t size = table_.size.load();
    for (std::size_t b = 0; b < size; b++) {
      Link* cell = bucket_if_allocated(b);
      const std::uintptr_t v = cell == nullptr ? kUninit : bits(cell->load());
      if ((v == kUninit) != (sentinel_at.count(b) == 0)) return false;
      if (v != kUninit && !is_linked(v)) return false;
    }
    for (const auto& [node, pos] : live_at) {
      std::size_t b = bucket_of(node_order(node->key), size);
      while (b != 0 && sentinel_at.count(b) == 0) b = parent_of(b);
      if (sentinel_at.count(b) == 0 || !(sentinel_at[b] < pos)) return false;
    }
    return true;
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
    /// Next element of the split-ordered list: a node, a sentinel (a
    /// tagged bucket index) or null (hashed form; empty otherwise).
    [[no_unique_address]] std::conditional_t<kHashed, Link, NoLink> hnext;
    // next[0..level) follows in the same allocation.

    /// One allocation for the header and the tower; the node owns w.
    static Node* make(const K& k, Word w, int lvl) {
      void* mem = nullptr;
      try {
        mem = ::operator new(bytes(lvl));
        return ::new (mem) Node(k, w, lvl);
      } catch (...) {
        ::operator delete(mem);
        if constexpr (kBoxed) delete w;
        throw;
      }
    }
    static std::size_t bytes(int lvl) {
      return sizeof(Node) + static_cast<std::size_t>(lvl) * sizeof(Link);
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
    // Hashed form: k's position in the split-ordered list, as Michael's
    // find leaves it (bcurr may be a sentinel or null).
    Link* bprev = nullptr;
    Node* bcurr = nullptr;
    Node* bnext = nullptr;
  };

  /// Tower heights: each level is kept with p = 1/2 in the plain form and
  /// p = 1/4 in the hashed form, whose towers only position inserts.
  static constexpr std::uint64_t kLevelMask = kHashed ? 3 : 1;

  static int random_level() {
    thread_local util::Xoshiro256 rng(
        0x9e3779b97f4a7c15ULL ^
        static_cast<std::uint64_t>(util::ThreadRegistry::tid() + 1) *
            0x2545f4914f6cdd1dULL);
    int lvl = 1;
    while (lvl < kMaxLevel && (rng.next() & kLevelMask) == kLevelMask) lvl++;
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
  /// gap changed, re-find. The hashed form links the hash gap first
  /// (pub), then descends and links level 0; its cleanup counts the key.
  bool link_new(Pos& pos, Node* node, const K& k) {
    if constexpr (kHashed) {
      node->hnext.store(pos.bcurr);
      if (!pos.bprev->nbtcCAS(pos.bcurr, node, /*lin=*/false, /*pub=*/true)) {
        return false;
      }
      do {
        // While we hold k's hash gap no other node of k can turn live,
        // so level 0 cannot hold one; retry rather than link a duplicate.
        if (find(pos, k)) abortTx(core::AbortReason::Conflict);
      } while (!link_level0(pos, node, k));
      addToCleanups([this] { count_insert(); });
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

  // ---- the split-ordered hash index (hashed form only) -----------------
  //
  // A link of the list holds null (the end), a node (bit 0 marks it
  // removed) or a sentinel: bucket b's cell, named (b << 4) | kSentinel.
  // A bucket cell holds kUninit until its sentinel is linked; while a
  // thread links it, the cell holds the proposed successor | kPending,
  // and whoever reaches the cell through the list (so it is linked)
  // clears the tag. Nodes are 16-byte aligned, so bits 0-3 are free.

  static constexpr std::uintptr_t kUninit = 2;
  static constexpr std::uintptr_t kSentinel = 4;
  static constexpr std::uintptr_t kPending = 8;
  static constexpr int kMaxLogBuckets = 40;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << kMaxLogBuckets;
  /// Segment 0 holds the initial buckets; segment j > 0 the buckets
  /// [2^(base+j-1), 2^(base+j)).
  static constexpr std::size_t kSegments = kMaxLogBuckets + 1;

  static Node* as_link(std::uintptr_t v) { return reinterpret_cast<Node*>(v); }
  static std::uintptr_t bits(Node* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  }
  static Node* sentinel(std::size_t b) {
    return as_link((b << 4) | kSentinel);
  }
  static bool is_sentinel(Node* p) { return (bits(p) & kSentinel) != 0; }
  static std::size_t sentinel_index(Node* p) { return bits(p) >> 4; }
  /// A bucket cell value that is a settled link (not kUninit or pending).
  static bool is_linked(std::uintptr_t v) {
    return (v & (kUninit | kPending)) == 0;
  }
  static Node* settled(Node* v) { return as_link(bits(v) & ~kPending); }
  static std::size_t parent_of(std::size_t b) {
    return b & ~std::bit_floor(b);
  }

  static std::uint64_t reverse_bits(std::uint64_t x) {
    x = __builtin_bswap64(x);
    x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
    return x;
  }
  /// Split order: a node sorts by its key's finalized hash (made odd),
  /// bucket b's sentinel by reversed b (even), i.e. right before the nodes
  /// whose order, bit-reversed, ends in b; nodes of equal order sort by
  /// key. The finalizer matters: std::hash is the identity on integers on
  /// common stdlibs, so strided keys (i * 1024) would share their low bits
  /// and pile into a few buckets at any table size. A bucket index is the
  /// reversal of the finalized hash's HIGH bits, which are independent of
  /// the low bits ShardedMedleyStore::shard_of routes by, so one shard's
  /// keys still spread over all of that shard's buckets.
  static std::uint64_t node_order(const K& k) {
    return util::mix64(static_cast<std::uint64_t>(std::hash<K>{}(k))) | 1;
  }
  static std::size_t bucket_of(std::uint64_t order, std::size_t size) {
    return static_cast<std::size_t>(reverse_bits(order)) & (size - 1);
  }
  static std::uint64_t sentinel_order(std::size_t b) {
    return reverse_bits(b);
  }

  std::size_t segment_len(std::size_t j) const {
    const std::size_t base = table_.base_log;
    return std::size_t{1} << (j == 0 ? base : base + j - 1);
  }

  /// Quiescent walk of the split-ordered list after bucket 0's sentinel:
  /// visit(element, its raw next link) per sentinel and node.
  template <typename F>
  void walk_hash_slow(F&& visit) {
    for (Node* cur = bucket(0).load(); cur != nullptr;) {
      Node* raw = is_sentinel(cur)
                      ? settled(bucket(sentinel_index(cur)).load())
                      : cur->hnext.load();
      visit(cur, raw);
      cur = unmark(raw);
    }
  }

  /// Segment of bucket b.
  std::size_t segment_of(std::size_t b) const {
    const std::size_t base = table_.base_log;
    return b >> base == 0 ? 0 : std::bit_width(b) - base;
  }

  /// Bucket b's cell, or null while its segment is unallocated.
  Link* bucket_if_allocated(std::size_t b) {
    const std::size_t j = segment_of(b);
    Link* seg = table_.segs[j].load(std::memory_order_acquire);
    if (seg == nullptr) return nullptr;
    return &seg[j == 0 ? b : b - std::bit_floor(b)];
  }

  /// Bucket b's cell, allocating its segment (all kUninit) on first use.
  Link& bucket(std::size_t b) {
    if (Link* cell = bucket_if_allocated(b)) return *cell;
    const std::size_t j = segment_of(b);
    const std::size_t n = segment_len(j);
    auto* seg = static_cast<Link*>(
        ::operator new(n * sizeof(Link), std::align_val_t{alignof(Link)}));
    for (std::size_t i = 0; i < n; i++) ::new (&seg[i]) Link(as_link(kUninit));
    Link* expected = nullptr;
    if (!table_.segs[j].compare_exchange_strong(expected, seg,
                                                std::memory_order_acq_rel)) {
      ::operator delete(seg, std::align_val_t{alignof(Link)});
    }
    return *bucket_if_allocated(b);
  }

  /// A committed insert's cleanup: count the key, and double the table
  /// once the keys outgrow it.
  void count_insert() {
    const std::int64_t keys =
        table_.keys.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t size = table_.size.load(std::memory_order_relaxed);
    if (keys > kMaxLoad * static_cast<std::int64_t>(size) &&
        size < kMaxBuckets) {
      table_.size.compare_exchange_strong(size, 2 * size);
    }
  }

  /// The cell a probe of bucket b starts from: b's sentinel, linked now if
  /// it is not yet, or else the nearest linked ancestor's (bucket 0's
  /// always is). Reads cells raw: a descriptor on one means it is linked.
  Link* start_cell(std::size_t b) {
    Link& cell = bucket(b);
    const util::U128 u = cell.raw();
    if (core::CASCell::holds_desc(u) || is_linked(u.lo)) return &cell;
    Link* parent = start_cell(parent_of(b));
    if (u.lo == kUninit && link_sentinel(b, cell, *parent)) return &cell;
    return parent;
  }

  /// Clear the pending tag of a sentinel cell known to be linked. A
  /// plain 128-bit CAS (counter + 2, as any plain change): it never
  /// finalizes a descriptor, so it cannot abort anyone.
  static void settle(Link& cell) {
    util::U128 u = cell.raw();
    while (!core::CASCell::holds_desc(u) && (u.lo & kPending) != 0) {
      if (cell.cell()->vc.compare_exchange(u,
                                           {u.lo & ~kPending, u.hi + 2})) {
        return;
      }
    }
  }

  /// Load a link the probe reached through the list (a sentinel reached
  /// that way is linked, so a pending tag on it is cleared first).
  Node* follow(Link& link) {
    Node* v = link.nbtcLoad();
    if ((bits(v) & kPending) != 0) {
      settle(link);
      v = link.nbtcLoad();
    }
    return v;
  }

  /// Committed value of a link, for link_sentinel's walk: where the link
  /// holds the calling transaction's own descriptor, the value that
  /// descriptor replaced (its speculative links are not the committed
  /// list), and `own` is set: a plain CAS there would finalize, and so
  /// abort, the caller.
  static Node* committed(Link& link, bool& own) {
    core::TxManager::ThreadCtx* c = core::TxManager::active_ctx();
    const util::U128 u = link.raw();
    own = core::CASCell::holds_desc(u) && c != nullptr && !c->read_only &&
          core::CASCell::desc_of(u) == c->desc;
    if (own) {
      // Null (never expected): end the walk here; `own` makes it give up.
      const core::WriteEntry* e =
          c->desc->find_write(link.cell(), c->begin_status);
      return e == nullptr
                 ? nullptr
                 : Link::decode(e->old_val.load(std::memory_order_relaxed));
    }
    settle(link);
    return link.load();  // resolves a foreign descriptor
  }

  /// Link bucket b's sentinel (its cell) into the list, walking from the
  /// parent's. Sentinels are structure, not state: the walk reads
  /// committed links and the links are plain descriptor-aware CASes, so a
  /// caller's abort never unlinks a sentinel a bucket points at. (The CAS
  /// may rewrite a link another transaction registered as absent-key
  /// evidence; that transaction then fails validation, spuriously but
  /// soundly, once per bucket.) False: another thread is linking it, or
  /// the link to CAS holds the caller's own descriptor; the caller probes
  /// from the parent.
  bool link_sentinel(std::size_t b, Link& cell, Link& parent) {
    if (!cell.CAS(as_link(kUninit), as_link(kPending))) return false;
    const std::uint64_t order = sentinel_order(b);
    for (;;) {
      Link* prev = &parent;
      bool own = false;  // prev holds the caller's descriptor
      Node* curr = committed(*prev, own);
      bool restart = false;
      while (curr != nullptr) {
        if (is_sentinel(curr)) {
          const std::size_t s = sentinel_index(curr);
          if (sentinel_order(s) > order) break;
          prev = &bucket(s);
          curr = committed(*prev, own);
          continue;
        }
        if (node_order(curr->key) > order) break;
        bool own_next = false;
        Node* raw = committed(curr->hnext, own_next);
        if (is_marked(raw)) {
          // A committed remove: help unlink it (the remover retires).
          if (own) break;
          if (!prev->CAS(curr, unmark(raw))) {
            restart = true;
            break;
          }
          curr = unmark(raw);
          continue;
        }
        prev = &curr->hnext;
        own = own_next;
        curr = raw;
      }
      if (restart) continue;
      if (own) {
        cell.store(as_link(kUninit));
        return false;
      }
      cell.store(as_link(bits(curr) | kPending));
      if (prev->CAS(curr, sentinel(b))) {
        settle(cell);
        return true;
      }
    }
  }

  /// Michael's search of k's place in the split-ordered list, from k's
  /// bucket sentinel: leaves bprev, bcurr, bnext around the first element
  /// ordered at or after k, unlinking marked nodes on the way (restarting
  /// from the sentinel when an unlink CAS fails). No retirement here — the
  /// remover retires after its own probe and search. Returns true iff
  /// bcurr holds k.
  bool probe(Pos& pos, const K& k) {
    const std::uint64_t order = node_order(k);
  retry:
    Link* prev = start_cell(bucket_of(order, table_.size.load()));
    Node* curr = follow(*prev);
    for (;;) {
      if (curr != nullptr && is_sentinel(curr)) {
        const std::size_t s = sentinel_index(curr);
        if (sentinel_order(s) < order) {
          prev = &bucket(s);
          curr = follow(*prev);
          continue;
        }
      }
      if (curr == nullptr || is_sentinel(curr)) {
        pos.bprev = prev;
        pos.bcurr = curr;
        pos.bnext = nullptr;
        return false;
      }
      Node* raw = curr->hnext.nbtcLoad();
      if (is_marked(raw)) {
        if (!prev->nbtcCAS(curr, unmark(raw), false, false)) goto retry;
        curr = unmark(raw);
        continue;
      }
      const std::uint64_t at = node_order(curr->key);
      if (at > order || (at == order && !(curr->key < k))) {
        pos.bprev = prev;
        pos.bcurr = curr;
        pos.bnext = raw;
        return at == order && curr->key == k;
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
  /// unspent. With ScanEntry::kProbe, the hashed form's first pass probes
  /// for lo and enters at its node when it is there: registering its
  /// unmarked level-0 link, as the walk does for every node it collects,
  /// witnesses it live, and no key lies between lo and itself. Otherwise
  /// the walk starts from find(lo)'s level-0 predecessor, whose link it
  /// registers; for an absent lo that descent comes after the wasted
  /// probe, while kDescend, the plain form and a restart descend at once.
  /// Marked nodes
  /// encountered mid-walk are helped out exactly as in find() —
  /// including our own speculative removals, whose unlink CAS
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
                                         std::size_t limit, ScanEntry how) {
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
    // The first pass may enter at lo's node.
    bool entry = kHashed && how == ScanEntry::kProbe;
    for (;;) {
      out.clear();
      Pos pos;
      CASObj<Node*>* pred_cell = nullptr;  // null: entered at lo's node
      Node* curr = nullptr;
      if constexpr (kHashed) {
        if (entry && probe(pos, lo)) curr = pos.bcurr;
      }
      if (curr == nullptr) {
        find(pos, lo);
        pred_cell = &pos.preds[0]->next(0);
        curr = pos.succs[0];
        // Entry evidence: nothing sits between pred(lo) and the first
        // candidate (pins absence for an empty result, too).
        reg(pred_cell, curr);
      }
      bool restart = false;
      while (curr != nullptr && out.size() < limit && in_range(curr->key)) {
        Node* raw = curr->next(0).nbtcLoad();
        if (is_marked(raw)) {
          // curr is logically deleted: help unlink it past pred_cell (no
          // retirement — the remover retires after its own search). An
          // entry node has no pred_cell: descend instead.
          if (pred_cell == nullptr ||
              !pred_cell->nbtcCAS(curr, unmark(raw), false, false)) {
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
      entry = false;
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

  /// The hashed form's bucket table (empty in the plain form).
  struct Table {
    std::size_t base_log = 0;  // log2 of the initial bucket count
    std::atomic<std::size_t> size{0};
    std::atomic<Link*> segs[kSegments] = {};
    alignas(64) std::atomic<std::int64_t> keys{0};  // committed, net
  };
  struct NoTable {};

  Node* head_;
  [[no_unique_address]] std::conditional_t<kHashed, Table, NoTable> table_;
};

/// The skip hash: a Fraser skiplist whose nodes are also chained into hash
/// buckets, so point operations skip the descent (see the header comment).
template <typename K, typename V>
using SkipHash = FraserSkiplist<K, V, 20, /*kHashed=*/true>;

}  // namespace medley::ds
