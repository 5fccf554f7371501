#ifndef STREAMQ_COMMON_ARENA_H_
#define STREAMQ_COMMON_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace streamq {

/// Counters for one SlabArena (all monotonically increasing except
/// `free_slabs`/`free_batches`, which are the current pool depths).
struct ArenaStats {
  int64_t slab_acquires = 0;   // Raw-slab Acquire calls.
  int64_t slab_reuses = 0;     // ... of which were served from the pool.
  int64_t slab_recycles = 0;   // Slabs returned and kept in the pool.
  int64_t slab_drops = 0;      // Slabs returned to a full/disabled pool.
  int64_t batch_shares = 0;    // Share() calls (one published batch each).
  int64_t batch_reuses = 0;    // ... of which reused a pooled batch node.
  size_t free_slabs = 0;
  size_t free_batches = 0;

  std::string ToString() const;
};

/// Slab/arena allocator with whole-batch recycling.
///
/// Two pools, one lock, zero steady-state allocation:
///
///  * **Raw slabs** (`Acquire` → `Recycle`): plain `std::vector<T>`
///    buffers whose heap storage survives round trips through the pool.
///    A feed loop's scratch chunk draws from here; returning the slab
///    clears elements but keeps capacity, so the next acquirer skips the
///    allocation *and* the reserve.
///
///  * **Shared batches** (`Share`): publishes a filled slab as an immutable
///    reference-counted batch (`Batch`). The refcount is intrusive — batch
///    node, vector storage and counter all live in one pooled allocation —
///    so handing a batch to N consumers costs N atomic increments and *no*
///    allocation, unlike `std::make_shared`, which allocates a control
///    block per batch and frees it on whichever thread drops the last
///    reference (cross-thread free traffic is exactly what the arena
///    exists to kill). When the last reference dies — on any thread — the
///    node returns to the pool of the arena that minted it.
///
/// An arena object is a cheap shared handle: copies share the same pools,
/// and the pools stay alive until the last handle *and* the last
/// outstanding batch are gone, so a `Batch` can safely outlive every
/// handle. Pools are bounded by `max_free_*`; overflow falls back to plain
/// heap free. Setting both bounds to zero disables pooling entirely and
/// degrades to one heap allocation per acquire/share — the reference
/// "malloc path" the benchmarks compare against.
///
/// Thread safety: all members are safe to call from any thread (one brief
/// mutex per pool operation — per *batch*, not per event). `Batch` copies
/// are lock-free.
template <typename T>
class SlabArena {
 public:
  struct Options {
    /// Capacity reserved for an acquired slab or a fresh batch node.
    size_t slab_capacity = 512;
    /// Upper bounds on pooled objects (free-list depth, not bytes).
    size_t max_free_slabs = 1024;
    size_t max_free_batches = 1024;
  };

  using Slab = std::vector<T>;

 private:
  struct Impl;

  /// One pooled batch: storage, intrusive refcount, and the owning pool
  /// (held only while the node is live, so pooled nodes do not keep the
  /// pool alive — see Impl lifetime note below).
  struct Node {
    std::vector<T> items;
    std::atomic<int32_t> refs{0};
    std::shared_ptr<Impl> home;
  };

 public:
  /// Immutable shared view of a published batch. Default-constructed /
  /// moved-from batches are empty (`!batch`) — the runners use an empty
  /// batch as their end-of-stream sentinel.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch& o) : node_(o.node_) {
      if (node_) node_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Batch(Batch&& o) noexcept : node_(std::exchange(o.node_, nullptr)) {}
    Batch& operator=(const Batch& o) {
      Batch copy(o);
      std::swap(node_, copy.node_);
      return *this;
    }
    Batch& operator=(Batch&& o) noexcept {
      std::swap(node_, o.node_);
      return *this;
    }
    ~Batch() { reset(); }

    explicit operator bool() const { return node_ != nullptr; }
    const std::vector<T>& operator*() const { return node_->items; }
    const std::vector<T>* operator->() const { return &node_->items; }

    /// Drops this reference; the last one returns the node to its arena.
    void reset() {
      Node* node = std::exchange(node_, nullptr);
      // acq_rel: the last releaser must observe every write made before
      // the other releasers' decrements (the node is about to be reused).
      if (node != nullptr &&
          node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Impl::ReturnNode(node);
      }
    }

   private:
    friend class SlabArena;
    explicit Batch(Node* node) : node_(node) {}
    Node* node_ = nullptr;
  };

  explicit SlabArena(Options options = {})
      : impl_(std::make_shared<Impl>(options)) {}

  const Options& options() const { return impl_->options; }

  /// Returns an empty slab with at least `slab_capacity` reserved. Reuses
  /// a pooled buffer when one is available (its capacity is whatever its
  /// previous life earned it; it is grown if short).
  Slab Acquire() {
    Slab slab = impl_->PopSlab();
    if (slab.capacity() < impl_->options.slab_capacity) {
      slab.reserve(impl_->options.slab_capacity);
    }
    return slab;
  }

  /// Returns a slab's storage to the pool (contents are discarded, capacity
  /// is kept). Safe from any thread.
  void Recycle(Slab&& slab) { impl_->PushSlab(std::move(slab)); }

  /// Publishes the contents of `*slab` as an immutable shared batch. The
  /// storage is *swapped* into a pooled node: on return `*slab` holds the
  /// node's previous buffer — empty, capacity intact — so a feed loop that
  /// fills, shares, and refills the same scratch slab allocates nothing in
  /// the steady state. When the last `Batch` reference is dropped — from
  /// any thread — the node (storage included) returns to this arena's pool.
  Batch Share(Slab* slab) {
    Node* node = impl_->PopNode(impl_);
    std::swap(node->items, *slab);
    slab->clear();  // Pooled buffers come back cleared; fresh ones are empty.
    node->refs.store(1, std::memory_order_relaxed);
    return Batch(node);
  }

  /// Point-in-time counters (approximate across threads).
  ArenaStats stats() const { return impl_->Stats(); }

 private:
  struct Impl {
    explicit Impl(Options opts) : options(opts) {}

    ~Impl() {
      for (Node* node : free_nodes) delete node;
    }

    Slab PopSlab() {
      std::lock_guard<std::mutex> lock(mu);
      ++stats_.slab_acquires;
      if (free_slabs.empty()) return Slab();
      ++stats_.slab_reuses;
      Slab slab = std::move(free_slabs.back());
      free_slabs.pop_back();
      return slab;
    }

    void PushSlab(Slab&& slab) {
      if (slab.capacity() == 0) return;  // Nothing worth keeping.
      slab.clear();
      std::lock_guard<std::mutex> lock(mu);
      if (free_slabs.size() >= options.max_free_slabs) {
        ++stats_.slab_drops;
        return;  // Pool full (or pooling disabled): plain heap free.
      }
      ++stats_.slab_recycles;
      free_slabs.push_back(std::move(slab));
    }

    /// Pops a pooled node (or heap-allocates one) and re-arms its `home`
    /// pointer so the node keeps the pool alive while in flight.
    Node* PopNode(const std::shared_ptr<Impl>& self) {
      Node* node = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        ++stats_.batch_shares;
        if (!free_nodes.empty()) {
          ++stats_.batch_reuses;
          node = free_nodes.back();
          free_nodes.pop_back();
        }
      }
      if (node == nullptr) {
        node = new Node();
        node->items.reserve(options.slab_capacity);
      }
      node->home = self;
      return node;
    }

    /// Called by the last Batch reference, possibly long after every arena
    /// handle is gone. The node's `home` ref keeps the Impl alive until
    /// here; pooled nodes drop it (otherwise pool ↔ node references would
    /// cycle and the Impl could never die).
    static void ReturnNode(Node* node) {
      std::shared_ptr<Impl> home = std::move(node->home);
      node->items.clear();
      {
        std::lock_guard<std::mutex> lock(home->mu);
        if (home->free_nodes.size() < home->options.max_free_batches) {
          home->free_nodes.push_back(node);
          return;
        }
      }
      delete node;
    }

    ArenaStats Stats() const {
      std::lock_guard<std::mutex> lock(mu);
      ArenaStats out = stats_;
      out.free_slabs = free_slabs.size();
      out.free_batches = free_nodes.size();
      return out;
    }

    const Options options;
    mutable std::mutex mu;
    std::vector<Slab> free_slabs;
    std::vector<Node*> free_nodes;
    ArenaStats stats_;
  };

  std::shared_ptr<Impl> impl_;
};

}  // namespace streamq

#endif  // STREAMQ_COMMON_ARENA_H_
