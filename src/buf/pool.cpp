#include "buf/pool.hpp"

#include <new>

#include "common/assert.hpp"

namespace ldlp::buf {

MbufPool::MbufPool(std::size_t mbuf_count, std::size_t cluster_count)
    : mbuf_slab_(static_cast<Mbuf*>(::operator new(mbuf_count * sizeof(Mbuf)))),
      cluster_slab_(static_cast<Cluster*>(
          ::operator new(cluster_count * sizeof(Cluster)))),
      mbuf_count_(mbuf_count),
      cluster_count_(cluster_count) {
  LDLP_ASSERT(mbuf_count > 0);
  // Reserving writes nothing, so no slab or freelist page is touched
  // before its buffer is first used.
  mbuf_free_.reserve(mbuf_count);
  cluster_free_.reserve(cluster_count);
}

MbufPool::~MbufPool() {
  LDLP_ASSERT_MSG(stats_.mbufs_outstanding() == 0,
                  "mbuf leak detected at pool destruction");
}

Mbuf* MbufPool::alloc(bool pkthdr) noexcept {
  Mbuf* m;
  if (!mbuf_free_.empty()) {
    m = mbuf_free_.back();
    mbuf_free_.pop_back();
  } else if (mbufs_carved_ < mbuf_count_) {
    m = new (mbuf_slab_.get() + mbufs_carved_++) Mbuf();
  } else {
    ++stats_.alloc_failures;
    return nullptr;
  }
  m->next_ = nullptr;
  m->nextpkt_ = nullptr;
  m->len_ = 0;
  m->pkt_len_ = 0;
  m->pkthdr_ = pkthdr;
  m->cluster_ = nullptr;
  m->pool_ = this;
  m->center_window();
  ++stats_.mbuf_allocs;
  return m;
}

bool MbufPool::add_cluster(Mbuf& m) noexcept {
  LDLP_DASSERT(m.len_ == 0 && m.cluster_ == nullptr);
  Cluster* c;
  if (!cluster_free_.empty()) {
    c = cluster_free_.back();
    cluster_free_.pop_back();
  } else if (clusters_carved_ < cluster_count_) {
    // Only the header is initialised; the bytes are written before use.
    c = new (cluster_slab_.get() + clusters_carved_++) Cluster;
  } else {
    ++stats_.alloc_failures;
    return false;
  }
  c->refs = 1;
  m.cluster_ = c;
  m.center_window();
  ++stats_.cluster_allocs;
  return true;
}

void MbufPool::share_cluster(const Mbuf& from, Mbuf& to) noexcept {
  LDLP_DASSERT(from.cluster_ != nullptr);
  LDLP_DASSERT(to.cluster_ == nullptr && to.len_ == 0);
  ++from.cluster_->refs;
  to.cluster_ = from.cluster_;
  to.data_ = from.data_;
  to.len_ = from.len_;
}

void MbufPool::release_cluster(Cluster* c) noexcept {
  LDLP_DASSERT(c->refs > 0);
  if (--c->refs == 0) {
    cluster_free_.push_back(c);
    ++stats_.cluster_frees;
  }
}

Mbuf* MbufPool::free_one(Mbuf* m) noexcept {
  LDLP_DASSERT(m != nullptr && m->pool_ == this);
  Mbuf* next = m->next_;
  if (m->cluster_ != nullptr) {
    release_cluster(m->cluster_);
    m->cluster_ = nullptr;
  }
  m->next_ = nullptr;
  m->nextpkt_ = nullptr;
  m->pool_ = nullptr;
  mbuf_free_.push_back(m);
  ++stats_.mbuf_frees;
  return next;
}

void MbufPool::free_chain(Mbuf* m) noexcept {
  while (m != nullptr) m = free_one(m);
}

}  // namespace ldlp::buf
