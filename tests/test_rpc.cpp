// RPC/NFS tests: XDR codec properties, RPC call/reply framing, the
// in-memory filesystem, and full client/server operation over the stack —
// including retry + duplicate-request-cache semantics under loss.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rpc/nfs_lite.hpp"
#include "stack/host_pair.hpp"

namespace ldlp::rpc {
namespace {

using wire::ip_from_parts;

TEST(Xdr, PrimitivesRoundTrip) {
  XdrWriter w;
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);
  w.i32(-42);
  XdrReader r(w.bytes());
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.boolean().value(), true);
  EXPECT_EQ(static_cast<std::int32_t>(r.u32().value()), -42);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, OpaquePadsToFourBytes) {
  XdrWriter w;
  const std::uint8_t five[] = {1, 2, 3, 4, 5};
  w.opaque(five);
  EXPECT_EQ(w.bytes().size(), 4u + 8u);  // length word + 5 bytes + 3 pad
  XdrReader r(w.bytes());
  const auto out = r.opaque();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 5u);
  EXPECT_EQ((*out)[4], 5);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, StringRoundTrip) {
  XdrWriter w;
  w.str("hello nfs");
  XdrReader r(w.bytes());
  EXPECT_EQ(r.str().value(), "hello nfs");
}

TEST(Xdr, BoundsEnforced) {
  XdrReader empty({});
  EXPECT_FALSE(empty.u32().has_value());
  XdrWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  XdrReader r(w.bytes());
  EXPECT_FALSE(r.opaque().has_value());
  // Length cap.
  XdrWriter w2;
  w2.opaque(std::vector<std::uint8_t>(64, 7));
  XdrReader r2(w2.bytes());
  EXPECT_FALSE(r2.opaque(32).has_value());
}

TEST(Xdr, RandomOpaqueProperty) {
  Rng rng(71);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> data(rng.bounded(200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    XdrWriter w;
    w.opaque(data);
    w.u32(0x5a5a5a5a);  // sentinel after the padding
    XdrReader r(w.bytes());
    EXPECT_EQ(r.opaque().value(), data);
    EXPECT_EQ(r.u32().value(), 0x5a5a5a5au);
  }
}

TEST(RpcMsg, CallRoundTrip) {
  RpcCall call;
  call.xid = 77;
  call.prog = kNfsProgram;
  call.vers = 2;
  call.proc = 4;
  call.args = {9, 9, 9, 9};
  const auto decoded = decode_rpc(encode_call(call));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->call.has_value());
  EXPECT_FALSE(decoded->reply.has_value());
  EXPECT_EQ(decoded->call->xid, 77u);
  EXPECT_EQ(decoded->call->prog, kNfsProgram);
  EXPECT_EQ(decoded->call->args, call.args);
}

TEST(RpcMsg, ReplyRoundTrip) {
  RpcReply reply;
  reply.xid = 88;
  reply.stat = AcceptStat::kSuccess;
  reply.results = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto decoded = decode_rpc(encode_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->reply.has_value());
  EXPECT_EQ(decoded->reply->results, reply.results);
}

TEST(RpcMsg, ErrorReplyCarriesNoResults) {
  RpcReply reply;
  reply.xid = 9;
  reply.stat = AcceptStat::kProcUnavail;
  const auto decoded = decode_rpc(encode_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reply->stat, AcceptStat::kProcUnavail);
  EXPECT_TRUE(decoded->reply->results.empty());
}

TEST(RpcMsg, WrongRpcVersionRejected) {
  RpcCall call;
  call.xid = 1;
  auto bytes = encode_call(call);
  bytes[11] = 3;  // rpcvers = 3
  EXPECT_FALSE(decode_rpc(bytes).has_value());
}

TEST(MemFs, CreateLookupReadWrite) {
  MemFs fs;
  FileHandle fh = 0;
  EXPECT_EQ(fs.create(kRootHandle, "file.txt", false, fh), NfsStat::kOk);
  EXPECT_EQ(fs.lookup(kRootHandle, "file.txt").value(), fh);
  EXPECT_FALSE(fs.lookup(kRootHandle, "other").has_value());

  const std::vector<std::uint8_t> data{'h', 'i'};
  EXPECT_EQ(fs.write(fh, 0, data), NfsStat::kOk);
  EXPECT_EQ(fs.getattr(fh)->size, 2u);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(fs.read(fh, 0, 10, out), NfsStat::kOk);
  EXPECT_EQ(out, data);
  // Sparse extend.
  EXPECT_EQ(fs.write(fh, 10, data), NfsStat::kOk);
  EXPECT_EQ(fs.getattr(fh)->size, 12u);
}

TEST(MemFs, CreateIsIdempotentViaExist) {
  MemFs fs;
  FileHandle a = 0;
  FileHandle b = 0;
  EXPECT_EQ(fs.create(kRootHandle, "x", false, a), NfsStat::kOk);
  EXPECT_EQ(fs.create(kRootHandle, "x", false, b), NfsStat::kExist);
  EXPECT_EQ(a, b);
}

TEST(MemFs, DirectoryChecks) {
  MemFs fs;
  FileHandle sub = 0;
  EXPECT_EQ(fs.create(kRootHandle, "dir", true, sub), NfsStat::kOk);
  FileHandle in_sub = 0;
  EXPECT_EQ(fs.create(sub, "nested", false, in_sub), NfsStat::kOk);
  EXPECT_EQ(fs.lookup(sub, "nested").value(), in_sub);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(fs.read(sub, 0, 8, out), NfsStat::kIsDir);
  FileHandle bogus = 0;
  EXPECT_EQ(fs.create(in_sub, "under-file", false, bogus), NfsStat::kNotDir);
  EXPECT_EQ(fs.read(9999, 0, 8, out), NfsStat::kStale);
}

TEST(MemFs, ReaddirListsSorted) {
  MemFs fs;
  FileHandle fh = 0;
  (void)fs.create(kRootHandle, "b", false, fh);
  (void)fs.create(kRootHandle, "a", false, fh);
  (void)fs.create(kRootHandle, "c", false, fh);
  const auto names = fs.readdir(kRootHandle);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

// ---- End-to-end fixture -----------------------------------------------------

struct NfsNet : stack::HostPair {
  stack::Host& client_host = a;
  stack::Host& server_host = b;
  std::unique_ptr<NfsServer> server;
  std::unique_ptr<NfsClient> client;

  explicit NfsNet(core::SchedMode mode = core::SchedMode::kConventional)
      : HostPair({.name = "nfsc", .mode = mode},
                 {.name = "nfsd", .mode = mode}) {
    server = std::make_unique<NfsServer>(server_host);
    NfsClient::Config cfg;
    cfg.server_ip = server_host.ip().ip_addr();
    client = std::make_unique<NfsClient>(client_host, cfg, [this] {
      client_host.pump();
      server_host.pump();
      server->poll();
      server_host.pump();
      client_host.pump();
    });
  }
};

TEST(NfsEndToEnd, CreateWriteReadBack) {
  NfsNet net;
  const auto fh = net.client->create(kRootHandle, "hello.txt");
  ASSERT_TRUE(fh.has_value());
  std::vector<std::uint8_t> content;
  for (int i = 0; i < 1000; ++i)
    content.push_back(static_cast<std::uint8_t>(i * 7));
  ASSERT_TRUE(net.client->write(*fh, 0, content));
  const auto attr = net.client->getattr(*fh);
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->size, 1000u);
  EXPECT_FALSE(attr->is_dir);
  const auto back = net.client->read(*fh, 0, 2000);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
  // Partial read at an offset.
  const auto window = net.client->read(*fh, 500, 16);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->size(), 16u);
  EXPECT_EQ((*window)[0], content[500]);
}

TEST(NfsEndToEnd, LookupAndReaddir) {
  NfsNet net;
  for (const char* name : {"alpha", "beta", "gamma"})
    ASSERT_TRUE(net.client->create(kRootHandle, name).has_value());
  const auto found = net.client->lookup(kRootHandle, "beta");
  ASSERT_TRUE(found.has_value());
  EXPECT_FALSE(net.client->lookup(kRootHandle, "delta").has_value());
  const auto listing = net.client->readdir(kRootHandle);
  ASSERT_TRUE(listing.has_value());
  EXPECT_EQ(*listing, (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(NfsEndToEnd, GetattrOnRoot) {
  NfsNet net;
  const auto attr = net.client->getattr(kRootHandle);
  ASSERT_TRUE(attr.has_value());
  EXPECT_TRUE(attr->is_dir);
}

TEST(NfsEndToEnd, StaleHandleFails) {
  NfsNet net;
  EXPECT_FALSE(net.client->getattr(424242).has_value());
  EXPECT_GT(net.server->stats().errors, 0u);
}

TEST(NfsEndToEnd, RetryAndDupCacheUnderLoss) {
  NfsNet net;
  // Lose the first copy of everything toward the server once in a while;
  // at-least-once retry plus the duplicate cache keep semantics exact.
  net.server_host.device().set_loss(0.4, 17);
  net.client_host.device().set_loss(0.4, 19);
  const auto fh = net.client->create(kRootHandle, "lossy.txt");
  ASSERT_TRUE(fh.has_value());
  std::vector<std::uint8_t> content(512, 0x3c);
  ASSERT_TRUE(net.client->write(*fh, 0, content));
  const auto back = net.client->read(*fh, 0, 1024);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
  // A retried CREATE must return the *same* handle (dup cache or kExist).
  const auto again = net.client->create(kRootHandle, "lossy.txt");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *fh);
  EXPECT_GT(net.client->stats().retries, 0u);
}

TEST(NfsEndToEnd, MetadataStormIsSmallMessages) {
  // The paper's observation: all NFS messages except READ replies and
  // WRITE calls are small. Measure the actual wire sizes of a metadata
  // workload.
  NfsNet net;
  for (int i = 0; i < 10; ++i) {
    const auto fh =
        net.client->create(kRootHandle, "f" + std::to_string(i));
    ASSERT_TRUE(fh.has_value());
    ASSERT_TRUE(net.client->getattr(*fh).has_value());
    ASSERT_TRUE(net.client->lookup(kRootHandle, "f" + std::to_string(i))
                    .has_value());
  }
  const auto& stats = net.server->stats();
  EXPECT_GE(stats.calls, 30u);
  // Mean message size across the metadata storm: well under 200 bytes.
  EXPECT_LT(stats.bytes_in / stats.calls, 200u);
  EXPECT_LT(stats.bytes_out / stats.calls, 200u);
}

TEST(NfsEndToEnd, WorksUnderLdlpScheduling) {
  NfsNet net(core::SchedMode::kLdlp);
  const auto fh = net.client->create(kRootHandle, "ldlp.txt");
  ASSERT_TRUE(fh.has_value());
  std::vector<std::uint8_t> content(256, 0x11);
  ASSERT_TRUE(net.client->write(*fh, 0, content));
  const auto back = net.client->read(*fh, 0, 256);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
}

}  // namespace
}  // namespace ldlp::rpc
