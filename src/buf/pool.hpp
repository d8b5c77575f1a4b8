// Mbuf and cluster pool.
//
// Fixed-capacity slab allocator with O(1) freelists. Allocation failure is
// reported, not thrown: a protocol stack under overload must shed packets,
// not unwind. The pool tracks outstanding buffers so tests can assert
// leak-freedom after every scenario.
//
// The slabs are reserved, not initialised: each mbuf or cluster is
// constructed the first time it is handed out, lowest index first, so a
// host commits memory for the buffers its traffic actually uses rather
// than for the whole pool at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "buf/mbuf.hpp"

namespace ldlp::buf {

struct PoolStats {
  std::uint64_t mbuf_allocs = 0;
  std::uint64_t mbuf_frees = 0;
  std::uint64_t cluster_allocs = 0;
  std::uint64_t cluster_frees = 0;
  std::uint64_t alloc_failures = 0;

  [[nodiscard]] std::uint64_t mbufs_outstanding() const noexcept {
    return mbuf_allocs - mbuf_frees;
  }
  [[nodiscard]] std::uint64_t clusters_outstanding() const noexcept {
    return cluster_allocs - cluster_frees;
  }
};

class MbufPool {
 public:
  explicit MbufPool(std::size_t mbuf_count = 4096,
                    std::size_t cluster_count = 1024);

  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;
  ~MbufPool();

  /// Allocate one mbuf with an empty, centered data window. Returns
  /// nullptr when the pool is exhausted. `pkthdr` marks it as the first
  /// mbuf of a packet.
  [[nodiscard]] Mbuf* alloc(bool pkthdr = false) noexcept;

  /// Attach a fresh cluster to `m` (which must have len == 0). The data
  /// window moves into the cluster. Returns false if no clusters remain.
  [[nodiscard]] bool add_cluster(Mbuf& m) noexcept;

  /// Share `from`'s cluster with `to` (refcounted, zero-copy). `to` gets
  /// the same data window as `from`.
  void share_cluster(const Mbuf& from, Mbuf& to) noexcept;

  /// Free one mbuf (not its chain); returns m->next() for m_free()-style
  /// iteration.
  Mbuf* free_one(Mbuf* m) noexcept;

  /// Free an entire chain.
  void free_chain(Mbuf* m) noexcept;

  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
  /// Buffers available: freed ones plus those never handed out.
  [[nodiscard]] std::size_t mbufs_free() const noexcept {
    return mbuf_free_.size() + (mbuf_count_ - mbufs_carved_);
  }
  [[nodiscard]] std::size_t clusters_free() const noexcept {
    return cluster_free_.size() + (cluster_count_ - clusters_carved_);
  }

 private:
  struct SlabDelete {
    void operator()(void* p) const noexcept { ::operator delete(p); }
  };

  void release_cluster(Cluster* c) noexcept;

  std::unique_ptr<Mbuf, SlabDelete> mbuf_slab_;
  std::unique_ptr<Cluster, SlabDelete> cluster_slab_;
  std::size_t mbuf_count_ = 0;
  std::size_t cluster_count_ = 0;
  /// Slots below these indices have been constructed (handed out once).
  std::size_t mbufs_carved_ = 0;
  std::size_t clusters_carved_ = 0;
  /// Freed buffers, reused LIFO before any new slot is carved — the order
  /// a freelist pre-filled lowest-index-last would give.
  std::vector<Mbuf*> mbuf_free_;
  std::vector<Cluster*> cluster_free_;
  PoolStats stats_;
};

}  // namespace ldlp::buf
