#include "rpc/nfs_lite.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ldlp::rpc {

namespace {
constexpr std::uint32_t kMaxIo = 8192;         ///< NFSv2 transfer cap.
constexpr std::uint32_t kMaxFileSize = 1 << 22;
constexpr std::size_t kDupCacheEntries = 128;
}  // namespace

// ---- MemFs -----------------------------------------------------------------

MemFs::MemFs() {
  Node root;
  root.attr.is_dir = true;
  nodes_[kRootHandle] = std::move(root);
}

const MemFs::Node* MemFs::node(FileHandle fh) const {
  const auto it = nodes_.find(fh);
  return it != nodes_.end() ? &it->second : nullptr;
}

MemFs::Node* MemFs::node(FileHandle fh) {
  const auto it = nodes_.find(fh);
  return it != nodes_.end() ? &it->second : nullptr;
}

std::optional<FileAttr> MemFs::getattr(FileHandle fh) const {
  const Node* n = node(fh);
  if (n == nullptr) return std::nullopt;
  return n->attr;
}

std::optional<FileHandle> MemFs::lookup(FileHandle dir,
                                        const std::string& name) const {
  const Node* d = node(dir);
  if (d == nullptr || !d->attr.is_dir) return std::nullopt;
  const auto it = d->names.find(name);
  if (it == d->names.end()) return std::nullopt;
  return it->second;
}

NfsStat MemFs::create(FileHandle dir, const std::string& name, bool is_dir,
                      FileHandle& out) {
  Node* d = node(dir);
  if (d == nullptr) return NfsStat::kStale;
  if (!d->attr.is_dir) return NfsStat::kNotDir;
  const auto existing = d->names.find(name);
  if (existing != d->names.end()) {
    out = existing->second;
    return NfsStat::kExist;
  }
  const FileHandle fh = next_handle_++;
  Node n;
  n.attr.is_dir = is_dir;
  nodes_[fh] = std::move(n);
  d->names[name] = fh;
  out = fh;
  return NfsStat::kOk;
}

NfsStat MemFs::read(FileHandle fh, std::uint32_t offset, std::uint32_t count,
                    std::vector<std::uint8_t>& out) const {
  const Node* n = node(fh);
  if (n == nullptr) return NfsStat::kStale;
  if (n->attr.is_dir) return NfsStat::kIsDir;
  out.clear();
  if (offset >= n->data.size()) return NfsStat::kOk;  // EOF: empty read
  const std::uint32_t take = std::min<std::uint32_t>(
      {count, kMaxIo, static_cast<std::uint32_t>(n->data.size()) - offset});
  out.assign(n->data.begin() + offset, n->data.begin() + offset + take);
  return NfsStat::kOk;
}

NfsStat MemFs::write(FileHandle fh, std::uint32_t offset,
                     std::span<const std::uint8_t> data) {
  Node* n = node(fh);
  if (n == nullptr) return NfsStat::kStale;
  if (n->attr.is_dir) return NfsStat::kIsDir;
  if (data.size() > kMaxIo) return NfsStat::kIo;
  const std::uint64_t end = static_cast<std::uint64_t>(offset) + data.size();
  if (end > kMaxFileSize) return NfsStat::kFBig;
  if (end > n->data.size()) n->data.resize(end);
  std::copy(data.begin(), data.end(), n->data.begin() + offset);
  n->attr.size = static_cast<std::uint32_t>(n->data.size());
  ++n->attr.mtime_ticks;
  return NfsStat::kOk;
}

std::vector<std::string> MemFs::readdir(FileHandle dir) const {
  std::vector<std::string> out;
  const Node* d = node(dir);
  if (d == nullptr || !d->attr.is_dir) return out;
  out.reserve(d->names.size());
  for (const auto& [name, fh] : d->names) {
    (void)fh;
    out.push_back(name);
  }
  return out;
}

// ---- XDR shapes ------------------------------------------------------------

namespace {

void write_attr(XdrWriter& w, const FileAttr& attr) {
  w.u32(attr.is_dir ? 2 : 1);  // NFDIR / NFREG
  w.u32(attr.mode);
  w.u32(attr.size);
  w.u64(attr.mtime_ticks);
}

std::optional<FileAttr> read_attr(XdrReader& r) {
  const auto type = r.u32();
  const auto mode = r.u32();
  const auto size = r.u32();
  const auto mtime = r.u64();
  if (!type.has_value() || !mode.has_value() || !size.has_value() ||
      !mtime.has_value())
    return std::nullopt;
  FileAttr attr;
  attr.is_dir = *type == 2;
  attr.mode = *mode;
  attr.size = *size;
  attr.mtime_ticks = *mtime;
  return attr;
}

}  // namespace

// ---- NfsServer -------------------------------------------------------------

NfsServer::NfsServer(stack::Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  socket_ = host_.sockets().create(stack::SocketKind::kDatagram, 256 * 1024);
  const bool bound = host_.udp().bind(port_, socket_);
  LDLP_ASSERT_MSG(bound, "NFS port already bound");
}

NfsServer::~NfsServer() {
  host_.udp().unbind(port_);
  host_.sockets().close(socket_);
}

std::size_t NfsServer::poll() {
  std::size_t handled = 0;
  while (auto dgram = host_.sockets().read_datagram(socket_)) {
    ++handled;
    stats_.bytes_in += dgram->payload.size();
    const auto decoded = decode_rpc(dgram->payload);
    if (!decoded.has_value() || !decoded->call.has_value()) {
      ++stats_.errors;
      continue;
    }
    const RpcCall& call = *decoded->call;
    ++stats_.calls;

    // Duplicate-request cache: a retried xid gets the cached reply
    // verbatim (so CREATE retries return the same handle).
    const auto cached = dup_cache_.find(call.xid);
    if (cached != dup_cache_.end()) {
      ++stats_.dup_cache_hits;
      stats_.bytes_out += cached->second.size();
      host_.udp().send(port_, dgram->from_ip, dgram->from_port,
                       cached->second);
      continue;
    }

    RpcReply reply;
    reply.xid = call.xid;
    if (call.prog != kNfsProgram) {
      reply.stat = AcceptStat::kProgUnavail;
    } else if (call.vers != kNfsVersion) {
      reply.stat = AcceptStat::kProgMismatch;
    } else {
      reply.results = dispatch(call, reply.stat);
    }
    auto bytes = encode_reply(reply);
    stats_.bytes_out += bytes.size();
    host_.udp().send(port_, dgram->from_ip, dgram->from_port, bytes);

    dup_cache_[call.xid] = std::move(bytes);
    dup_order_.push_back(call.xid);
    if (dup_order_.size() > kDupCacheEntries) {
      dup_cache_.erase(dup_order_.front());
      dup_order_.erase(dup_order_.begin());
    }
  }
  return handled;
}

std::vector<std::uint8_t> NfsServer::dispatch(const RpcCall& call,
                                              AcceptStat& stat) {
  stat = AcceptStat::kSuccess;
  XdrReader r(call.args);
  XdrWriter w;

  auto fail = [&](NfsStat err) {
    XdrWriter fw;
    fw.u32(static_cast<std::uint32_t>(err));
    ++stats_.errors;
    return fw.take();
  };

  switch (static_cast<NfsProc>(call.proc)) {
    case NfsProc::kNull:
      return {};
    case NfsProc::kGetattr: {
      const auto fh = r.u64();
      if (!fh.has_value()) break;
      const auto attr = fs_.getattr(*fh);
      if (!attr.has_value()) return fail(NfsStat::kStale);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      write_attr(w, *attr);
      return w.take();
    }
    case NfsProc::kLookup: {
      const auto dir = r.u64();
      const auto name = r.str(255);
      if (!dir.has_value() || !name.has_value()) break;
      const auto fh = fs_.lookup(*dir, *name);
      if (!fh.has_value()) return fail(NfsStat::kNoEnt);
      const auto attr = fs_.getattr(*fh);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      w.u64(*fh);
      write_attr(w, *attr);
      return w.take();
    }
    case NfsProc::kCreate: {
      const auto dir = r.u64();
      const auto name = r.str(255);
      if (!dir.has_value() || !name.has_value()) break;
      FileHandle fh = 0;
      const NfsStat result = fs_.create(*dir, *name, false, fh);
      if (result != NfsStat::kOk && result != NfsStat::kExist)
        return fail(result);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      w.u64(fh);
      write_attr(w, *fs_.getattr(fh));
      return w.take();
    }
    case NfsProc::kRead: {
      const auto fh = r.u64();
      const auto offset = r.u32();
      const auto count = r.u32();
      if (!fh.has_value() || !offset.has_value() || !count.has_value()) break;
      std::vector<std::uint8_t> data;
      const NfsStat result = fs_.read(*fh, *offset, *count, data);
      if (result != NfsStat::kOk) return fail(result);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      write_attr(w, *fs_.getattr(*fh));
      w.opaque(data);
      return w.take();
    }
    case NfsProc::kWrite: {
      const auto fh = r.u64();
      const auto offset = r.u32();
      const auto data = r.opaque(kMaxIo);
      if (!fh.has_value() || !offset.has_value() || !data.has_value()) break;
      const NfsStat result = fs_.write(*fh, *offset, *data);
      if (result != NfsStat::kOk) return fail(result);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      write_attr(w, *fs_.getattr(*fh));
      return w.take();
    }
    case NfsProc::kReaddir: {
      const auto dir = r.u64();
      if (!dir.has_value()) break;
      const auto attr = fs_.getattr(*dir);
      if (!attr.has_value()) return fail(NfsStat::kStale);
      if (!attr->is_dir) return fail(NfsStat::kNotDir);
      const auto names = fs_.readdir(*dir);
      w.u32(static_cast<std::uint32_t>(NfsStat::kOk));
      w.u32(static_cast<std::uint32_t>(names.size()));
      for (const std::string& name : names) w.str(name);
      return w.take();
    }
    default:
      stat = AcceptStat::kProcUnavail;
      return {};
  }
  stat = AcceptStat::kGarbageArgs;
  ++stats_.errors;
  return {};
}

// ---- NfsClient -------------------------------------------------------------

NfsClient::NfsClient(stack::Host& host, Config config, PumpFn pump)
    : host_(host), cfg_(config), pump_(std::move(pump)) {
  LDLP_ASSERT(cfg_.server_ip != 0 && pump_ != nullptr);
  socket_ = host_.sockets().create(stack::SocketKind::kDatagram, 256 * 1024);
  const bool bound = host_.udp().bind(cfg_.local_port, socket_);
  LDLP_ASSERT_MSG(bound, "NFS client port already bound");
}

NfsClient::~NfsClient() {
  host_.udp().unbind(cfg_.local_port);
  host_.sockets().close(socket_);
}

std::optional<std::vector<std::uint8_t>> NfsClient::call(
    NfsProc proc, std::span<const std::uint8_t> args) {
  RpcCall rpc_call;
  rpc_call.xid = next_xid_++;
  rpc_call.prog = kNfsProgram;
  rpc_call.vers = kNfsVersion;
  rpc_call.proc = static_cast<std::uint32_t>(proc);
  rpc_call.args.assign(args.begin(), args.end());
  const auto wire_bytes = encode_call(rpc_call);

  for (std::uint32_t attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    ++stats_.calls;
    if (attempt > 0) ++stats_.retries;
    host_.udp().send(cfg_.local_port, cfg_.server_ip, cfg_.server_port,
                     wire_bytes);
    // Synchronous wait: pump the network a bounded number of rounds.
    for (int round = 0; round < 16; ++round) {
      pump_();
      while (auto dgram = host_.sockets().read_datagram(socket_)) {
        const auto decoded = decode_rpc(dgram->payload);
        if (!decoded.has_value() || !decoded->reply.has_value()) continue;
        if (decoded->reply->xid != rpc_call.xid) continue;  // stale
        if (decoded->reply->stat != AcceptStat::kSuccess) {
          ++stats_.failures;
          return std::nullopt;
        }
        ++stats_.replies;
        return decoded->reply->results;
      }
    }
    // Simulated timeout before the retry, doubling per attempt up to the
    // cap (classic RPC backoff; keeps a dead server cheap).
    double timeout = cfg_.retry_sec;
    for (std::uint32_t i = 0; i < attempt && timeout < cfg_.retry_max_sec; ++i)
      timeout *= 2.0;
    host_.advance(std::min(timeout, cfg_.retry_max_sec));
  }
  ++stats_.failures;
  return std::nullopt;
}

std::optional<FileAttr> NfsClient::getattr(FileHandle fh) {
  XdrWriter w;
  w.u64(fh);
  const auto results = call(NfsProc::kGetattr, w.bytes());
  if (!results.has_value()) return std::nullopt;
  XdrReader r(*results);
  const auto status = r.u32();
  if (!status.has_value() ||
      *status != static_cast<std::uint32_t>(NfsStat::kOk))
    return std::nullopt;
  return read_attr(r);
}

std::optional<FileHandle> NfsClient::lookup(FileHandle dir,
                                            const std::string& name) {
  XdrWriter w;
  w.u64(dir);
  w.str(name);
  const auto results = call(NfsProc::kLookup, w.bytes());
  if (!results.has_value()) return std::nullopt;
  XdrReader r(*results);
  const auto status = r.u32();
  if (!status.has_value() ||
      *status != static_cast<std::uint32_t>(NfsStat::kOk))
    return std::nullopt;
  return r.u64();
}

std::optional<FileHandle> NfsClient::create(FileHandle dir,
                                            const std::string& name) {
  XdrWriter w;
  w.u64(dir);
  w.str(name);
  const auto results = call(NfsProc::kCreate, w.bytes());
  if (!results.has_value()) return std::nullopt;
  XdrReader r(*results);
  const auto status = r.u32();
  if (!status.has_value() ||
      *status != static_cast<std::uint32_t>(NfsStat::kOk))
    return std::nullopt;
  return r.u64();
}

std::optional<std::vector<std::uint8_t>> NfsClient::read(FileHandle fh,
                                                         std::uint32_t offset,
                                                         std::uint32_t count) {
  XdrWriter w;
  w.u64(fh);
  w.u32(offset);
  w.u32(count);
  const auto results = call(NfsProc::kRead, w.bytes());
  if (!results.has_value()) return std::nullopt;
  XdrReader r(*results);
  const auto status = r.u32();
  if (!status.has_value() ||
      *status != static_cast<std::uint32_t>(NfsStat::kOk))
    return std::nullopt;
  if (!read_attr(r).has_value()) return std::nullopt;
  return r.opaque();
}

bool NfsClient::write(FileHandle fh, std::uint32_t offset,
                      std::span<const std::uint8_t> data) {
  XdrWriter w;
  w.u64(fh);
  w.u32(offset);
  w.opaque(data);
  const auto results = call(NfsProc::kWrite, w.bytes());
  if (!results.has_value()) return false;
  XdrReader r(*results);
  const auto status = r.u32();
  return status.has_value() &&
         *status == static_cast<std::uint32_t>(NfsStat::kOk);
}

std::optional<std::vector<std::string>> NfsClient::readdir(FileHandle fh) {
  XdrWriter w;
  w.u64(fh);
  const auto results = call(NfsProc::kReaddir, w.bytes());
  if (!results.has_value()) return std::nullopt;
  XdrReader r(*results);
  const auto status = r.u32();
  if (!status.has_value() ||
      *status != static_cast<std::uint32_t>(NfsStat::kOk))
    return std::nullopt;
  const auto count = r.u32();
  if (!count.has_value() || *count > 4096) return std::nullopt;
  std::vector<std::string> names;
  names.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto name = r.str(255);
    if (!name.has_value()) return std::nullopt;
    names.push_back(std::move(*name));
  }
  return names;
}

}  // namespace ldlp::rpc
