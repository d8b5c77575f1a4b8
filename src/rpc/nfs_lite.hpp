// NFS-lite: a miniature NFSv2-flavoured file service over ONC RPC / UDP.
//
// The paper's intro counts "all except two messages in NFS" among the
// small messages (READ replies and WRITE calls being the fat exceptions).
// This service reproduces that mix: GETATTR / LOOKUP / CREATE / READDIR
// are all well under 200 bytes on the wire, while READ/WRITE carry data.
//
// Semantics follow classic NFSv2: stateless server, idempotent
// procedures, at-least-once UDP with client retry, plus the standard
// duplicate-request cache so retried non-idempotent-looking operations
// (CREATE) don't double-apply.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/rpc_msg.hpp"
#include "stack/host.hpp"

namespace ldlp::rpc {

inline constexpr std::uint32_t kNfsProgram = 100003;
inline constexpr std::uint32_t kNfsVersion = 2;
inline constexpr std::uint16_t kNfsPort = 2049;

enum class NfsProc : std::uint32_t {
  kNull = 0,
  kGetattr = 1,
  kLookup = 4,
  kRead = 6,
  kWrite = 8,
  kCreate = 9,
  kReaddir = 16,
};

enum class NfsStat : std::uint32_t {
  kOk = 0,
  kNoEnt = 2,
  kIo = 5,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kFBig = 27,
  kStale = 70,
};

using FileHandle = std::uint64_t;
inline constexpr FileHandle kRootHandle = 1;

struct FileAttr {
  bool is_dir = false;
  std::uint32_t size = 0;
  std::uint32_t mode = 0644;
  std::uint64_t mtime_ticks = 0;
};

/// In-memory filesystem backing the server: a root directory of flat
/// files plus subdirectories one level deep (enough for realistic
/// metadata workloads without a full hierarchy walk).
class MemFs {
 public:
  MemFs();

  [[nodiscard]] std::optional<FileAttr> getattr(FileHandle fh) const;
  [[nodiscard]] std::optional<FileHandle> lookup(FileHandle dir,
                                                 const std::string& name) const;
  /// Returns kExist if present (and hands back the existing handle, NFS
  /// semantics), kNotDir if dir isn't a directory.
  NfsStat create(FileHandle dir, const std::string& name, bool is_dir,
                 FileHandle& out);
  NfsStat read(FileHandle fh, std::uint32_t offset, std::uint32_t count,
               std::vector<std::uint8_t>& out) const;
  NfsStat write(FileHandle fh, std::uint32_t offset,
                std::span<const std::uint8_t> data);
  [[nodiscard]] std::vector<std::string> readdir(FileHandle dir) const;

  [[nodiscard]] std::size_t file_count() const noexcept {
    return nodes_.size();
  }

 private:
  struct Node {
    FileAttr attr;
    std::vector<std::uint8_t> data;           ///< Files.
    std::map<std::string, FileHandle> names;  ///< Directories.
  };

  [[nodiscard]] const Node* node(FileHandle fh) const;
  [[nodiscard]] Node* node(FileHandle fh);

  std::unordered_map<FileHandle, Node> nodes_;
  FileHandle next_handle_ = kRootHandle + 1;
};

struct NfsServerStats {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t dup_cache_hits = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class NfsServer {
 public:
  explicit NfsServer(stack::Host& host, std::uint16_t port = kNfsPort);
  ~NfsServer();

  [[nodiscard]] MemFs& fs() noexcept { return fs_; }

  /// Drain and answer pending calls. Call after host.pump().
  std::size_t poll();

  [[nodiscard]] const NfsServerStats& stats() const noexcept { return stats_; }

 private:
  std::vector<std::uint8_t> dispatch(const RpcCall& call, AcceptStat& stat);

  stack::Host& host_;
  std::uint16_t port_;
  stack::SocketId socket_ = stack::kNoSocket;
  MemFs fs_;
  /// Duplicate-request cache: xid -> encoded reply (bounded FIFO).
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> dup_cache_;
  std::vector<std::uint32_t> dup_order_;
  NfsServerStats stats_;
};

struct NfsClientStats {
  std::uint64_t calls = 0;
  std::uint64_t replies = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
};

/// Synchronous-style client: issue a call, pump the network via the
/// supplied hook until the reply lands or retries run out.
class NfsClient {
 public:
  struct Config {
    std::uint32_t server_ip = 0;
    std::uint16_t server_port = kNfsPort;
    std::uint16_t local_port = 30049;
    std::uint32_t max_retries = 3;
    double retry_sec = 0.5;      ///< First retry timeout; doubles per attempt.
    double retry_max_sec = 2.0;  ///< Backoff ceiling.
  };

  /// `pump` must advance the network (both hosts + server poll) once.
  using PumpFn = std::function<void()>;

  NfsClient(stack::Host& host, Config config, PumpFn pump);
  ~NfsClient();

  [[nodiscard]] std::optional<FileAttr> getattr(FileHandle fh);
  [[nodiscard]] std::optional<FileHandle> lookup(FileHandle dir,
                                                 const std::string& name);
  [[nodiscard]] std::optional<FileHandle> create(FileHandle dir,
                                                 const std::string& name);
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read(
      FileHandle fh, std::uint32_t offset, std::uint32_t count);
  [[nodiscard]] bool write(FileHandle fh, std::uint32_t offset,
                           std::span<const std::uint8_t> data);
  [[nodiscard]] std::optional<std::vector<std::string>> readdir(FileHandle fh);

  [[nodiscard]] const NfsClientStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> call(
      NfsProc proc, std::span<const std::uint8_t> args);

  stack::Host& host_;
  Config cfg_;
  PumpFn pump_;
  stack::SocketId socket_ = stack::kNoSocket;
  std::uint32_t next_xid_ = 0x10000001;
  NfsClientStats stats_;
};

}  // namespace ldlp::rpc
