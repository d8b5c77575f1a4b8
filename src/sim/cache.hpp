// Set-associative cache model.
//
// The paper's results (section 4) are produced on a synthetic machine with
// 8 KB direct-mapped primary instruction and data caches, 32-byte lines and
// a 20-cycle read-miss stall. This class models exactly that — a tag array
// with true-LRU replacement within a set (direct-mapped when ways == 1) —
// and nothing more: no write buffers, no prefetch, no hierarchy below. A
// miss is a miss; the penalty is applied by MemorySystem.
#pragma once

#include <cstdint>
#include <vector>

namespace ldlp::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 8 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 1;  ///< 1 = direct-mapped.

  [[nodiscard]] std::uint32_t num_lines() const noexcept {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return num_lines() / ways;
  }
  /// All three fields must be powers of two and consistent.
  [[nodiscard]] bool valid() const noexcept;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits + misses;
  }
  [[nodiscard]] double miss_rate() const noexcept {
    const auto n = accesses();
    return n != 0 ? static_cast<double>(misses) / static_cast<double>(n) : 0.0;
  }
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Touch the line containing `addr`. Returns true on hit. A miss fills
  /// the line (evicting LRU) so a subsequent access hits.
  bool access(std::uint64_t addr) noexcept;

  /// Touch every line overlapping [addr, addr+len). Returns miss count.
  std::uint32_t access_range(std::uint64_t addr, std::uint64_t len) noexcept;

  /// Is the line containing `addr` currently resident? Does not update LRU
  /// or statistics.
  [[nodiscard]] bool contains(std::uint64_t addr) const noexcept;

  /// Invalidate all lines (cold cache). Statistics are preserved.
  void flush() noexcept;

  void reset_stats() noexcept { stats_ = {}; }

  /// Number of currently valid lines.
  [[nodiscard]] std::uint32_t resident_lines() const noexcept;

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint32_t lru = 0;  ///< Higher = more recently used.
    bool valid = false;
  };

  [[nodiscard]] std::uint64_t line_of(std::uint64_t addr) const noexcept {
    return addr >> line_shift_;
  }

  CacheConfig cfg_;
  CacheStats stats_;
  std::uint32_t line_shift_;
  std::uint32_t set_mask_;
  std::uint32_t lru_clock_ = 0;
  std::vector<Way> ways_;  ///< num_sets * ways, set-major.
};

}  // namespace ldlp::sim
