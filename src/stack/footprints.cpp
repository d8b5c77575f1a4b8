#include "stack/footprints.hpp"

#include "common/assert.hpp"

namespace ldlp::stack {

namespace {

using trace::DataIntent;
using trace::LayerClass;

struct FnSpec {
  Fn fn;
  const char* name;
  LayerClass layer;
  std::uint32_t size;    ///< Figure 1 function size (bytes).
  std::uint32_t target;  ///< Calibrated touched bytes (32 B line units)
                         ///< so per-layer sums match Table 1.
};

// Sizes are the numbers printed beside each function in the paper's
// Figure 1. Targets distribute each Table 1 layer total over the layer's
// functions proportionally to size (Device 4480, Ethernet 2784, IP 3168,
// TCP 5536, Socket low 608, Socket high 1184, Kernel entry/exit 2208,
// Process control 5472, Buffer mgmt 1632, Copy/checksum 3232).
constexpr FnSpec kFns[] = {
    // Device: total target 4480 over 6544 bytes of code.
    {Fn::kLeIntr, "leintr", LayerClass::kDevice, 3264, 2234},
    {Fn::kLeStart, "lestart", LayerClass::kDevice, 1824, 1249},
    {Fn::kAsicIntr, "asic_intr", LayerClass::kDevice, 392, 268},
    {Fn::kTcIoIntr, "tc_3000_500_iointr", LayerClass::kDevice, 848, 581},
    {Fn::kLeWriteReg, "lewritereg", LayerClass::kDevice, 216, 148},
    // Ethernet: 2784 over 7592.
    {Fn::kEtherInput, "ether_input", LayerClass::kEthernet, 2728, 1000},
    {Fn::kEtherOutput, "ether_output", LayerClass::kEthernet, 3632, 1332},
    {Fn::kArpResolve, "arpresolve", LayerClass::kEthernet, 944, 346},
    {Fn::kInBroadcast, "in_broadcast", LayerClass::kEthernet, 288, 106},
    // IP: 3168 over 8312.
    {Fn::kIpIntr, "ipintr", LayerClass::kIp, 2648, 1009},
    {Fn::kIpOutput, "ip_output", LayerClass::kIp, 5120, 1951},
    {Fn::kNetIntr, "netintr", LayerClass::kIp, 344, 131},
    {Fn::kDoSir, "do_sir", LayerClass::kIp, 200, 77},
    // TCP: 5536 over 19096 (the fast path touches ~29% of the code).
    {Fn::kTcpInput, "tcp_input", LayerClass::kTcp, 11872, 3442},
    {Fn::kTcpOutput, "tcp_output", LayerClass::kTcp, 4872, 1412},
    {Fn::kTcpUsrreq, "tcp_usrreq", LayerClass::kTcp, 2352, 682},
    // Socket low: 608 over 1224.
    {Fn::kSbAppend, "sbappend", LayerClass::kSocketLow, 160, 79},
    {Fn::kSbCompress, "sbcompress", LayerClass::kSocketLow, 704, 350},
    {Fn::kSoWakeup, "sowakeup", LayerClass::kSocketLow, 360, 179},
    // Socket high: 1184 over 6088.
    {Fn::kSoReceive, "soreceive", LayerClass::kSocketHigh, 5536, 1077},
    {Fn::kSooRead, "soo_read", LayerClass::kSocketHigh, 80, 16},
    {Fn::kSbWait, "sbwait", LayerClass::kSocketHigh, 160, 31},
    {Fn::kRead, "read", LayerClass::kSocketHigh, 312, 60},
    // Kernel entry/exit: 2208 over 4188.
    {Fn::kSyscall, "syscall", LayerClass::kKernelEntry, 1176, 620},
    {Fn::kTrap, "trap", LayerClass::kKernelEntry, 2008, 1054},
    {Fn::kXentInt, "XentInt", LayerClass::kKernelEntry, 208, 110},
    {Fn::kXentSys, "XentSys", LayerClass::kKernelEntry, 148, 78},
    {Fn::kRei, "rei", LayerClass::kKernelEntry, 320, 169},
    {Fn::kInterrupt, "interrupt", LayerClass::kKernelEntry, 184, 97},
    {Fn::kPalSwpIpl, "pal_swpipl", LayerClass::kKernelEntry, 8, 8},
    {Fn::kSpl0, "spl0", LayerClass::kKernelEntry, 136, 72},
    // Process control: 5472 over 3552 named + misc aggregate.
    {Fn::kTsleep, "tsleep", LayerClass::kProcessControl, 1096, 944},
    {Fn::kWakeup, "wakeup", LayerClass::kProcessControl, 488, 420},
    {Fn::kMiSwitch, "mi_switch", LayerClass::kProcessControl, 520, 448},
    {Fn::kCpuSwitch, "cpu_switch", LayerClass::kProcessControl, 460, 396},
    {Fn::kSetRunqueue, "setrunqueue", LayerClass::kProcessControl, 176, 152},
    {Fn::kSelWakeup, "selwakeup", LayerClass::kProcessControl, 456, 393},
    {Fn::kIdle, "idle", LayerClass::kProcessControl, 68, 59},
    {Fn::kMicrotime, "microtime", LayerClass::kProcessControl, 288, 248},
    {Fn::kSchedMisc, "sched_misc", LayerClass::kProcessControl, 2800, 2412},
    // Buffer management: 1632 over 2840.
    {Fn::kMalloc, "malloc", LayerClass::kBufferMgmt, 1608, 924},
    {Fn::kFree, "free", LayerClass::kBufferMgmt, 856, 492},
    {Fn::kMAdj, "m_adj", LayerClass::kBufferMgmt, 376, 216},
    // Copy / checksum: 3232; in_cksum active bytes (992) are given in the
    // paper's section 5.1 directly.
    {Fn::kInCksum, "in_cksum", LayerClass::kCopyChecksum, 1104, 992},
    {Fn::kBcopy, "bcopy", LayerClass::kCopyChecksum, 620, 544},
    {Fn::kCopyout, "copyout", LayerClass::kCopyChecksum, 132, 116},
    {Fn::kUiomove, "uiomove", LayerClass::kCopyChecksum, 424, 372},
    {Fn::kBzero, "bzero", LayerClass::kCopyChecksum, 184, 161},
    {Fn::kNtohl, "ntohl", LayerClass::kCopyChecksum, 64, 56},
    {Fn::kNtohs, "ntohs", LayerClass::kCopyChecksum, 32, 28},
    {Fn::kCopyFromBufGap2, "copyfrombuf_gap2", LayerClass::kCopyChecksum, 240,
     211},
    {Fn::kZeroBufGap16, "zerobuf_gap16", LayerClass::kCopyChecksum, 184, 161},
    {Fn::kCopyToBufGap16, "copytobuf_gap16", LayerClass::kCopyChecksum, 208,
     183},
    {Fn::kCopyToBufGap2, "copytobuf_gap2", LayerClass::kCopyChecksum, 256,
     225},
    {Fn::kCopyFromBufGap16, "copyfrombuf_gap16", LayerClass::kCopyChecksum,
     208, 183},
};

struct RgnSpec {
  Rgn rgn;
  const char* name;
  LayerClass layer;
  DataIntent intent;
  std::uint32_t target;  ///< Table 1 bytes (32 B line units).
};

// Region extents are sized ~2x the touched bytes (kernel tables are
// touched sparsely); targets match the Table 1 RO/mutable columns.
constexpr RgnSpec kRgns[] = {
    {Rgn::kDevConfigRo, "le_config", LayerClass::kDevice,
     DataIntent::kReadOnly, 864},
    {Rgn::kDevRingMut, "le_ring", LayerClass::kDevice, DataIntent::kMutable,
     672},
    {Rgn::kEthIfnetRo, "ifnet_ro", LayerClass::kEthernet,
     DataIntent::kReadOnly, 480},
    {Rgn::kEthStatsMut, "ifnet_stats", LayerClass::kEthernet,
     DataIntent::kMutable, 128},
    {Rgn::kIpRouteRo, "ip_route", LayerClass::kIp, DataIntent::kReadOnly, 448},
    {Rgn::kIpStateMut, "ipstat", LayerClass::kIp, DataIntent::kMutable, 160},
    {Rgn::kTcpTablesRo, "tcp_tables", LayerClass::kTcp, DataIntent::kReadOnly,
     544},
    {Rgn::kTcpPcbMut, "tcp_pcb", LayerClass::kTcp, DataIntent::kMutable, 448},
    {Rgn::kSockLowRo, "sb_ro", LayerClass::kSocketLow, DataIntent::kReadOnly,
     32},
    {Rgn::kSockBufMut, "sockbuf", LayerClass::kSocketLow,
     DataIntent::kMutable, 160},
    {Rgn::kSockHighRo, "fileops", LayerClass::kSocketHigh,
     DataIntent::kReadOnly, 256},
    {Rgn::kSockFileMut, "file_state", LayerClass::kSocketHigh,
     DataIntent::kMutable, 64},
    {Rgn::kSysentRo, "sysent", LayerClass::kKernelEntry,
     DataIntent::kReadOnly, 1280},
    {Rgn::kKernFrameMut, "kern_globals", LayerClass::kKernelEntry,
     DataIntent::kMutable, 640},
    {Rgn::kProcTablesRo, "proc_tables", LayerClass::kProcessControl,
     DataIntent::kReadOnly, 544},
    {Rgn::kProcStateMut, "proc_state", LayerClass::kProcessControl,
     DataIntent::kMutable, 736},
    {Rgn::kBufBucketsRo, "kmembuckets", LayerClass::kBufferMgmt,
     DataIntent::kReadOnly, 192},
    {Rgn::kBufFreelistMut, "mbstat", LayerClass::kBufferMgmt,
     DataIntent::kMutable, 512},
    {Rgn::kCopyTablesRo, "copy_tables", LayerClass::kCopyChecksum,
     DataIntent::kReadOnly, 448},
    {Rgn::kCopyStateMut, "copy_state", LayerClass::kCopyChecksum,
     DataIntent::kMutable, 128},
};

// Sparsity parameters: executed code comes in ~96-byte basic-block runs,
// read-only data in ~20-byte items, mutable data in ~14-byte items (see
// DESIGN.md — chosen so Table 3's line-size scaling reproduces).
constexpr trace::SparsityParams kCodeSparsity{96, 8};
constexpr trace::SparsityParams kRoSparsity{20, 4};
constexpr trace::SparsityParams kMutSparsity{14, 4};

/// Table 1 counts whole cache lines; a touch of `target` bytes in runs of
/// mean length `run` rasterises to roughly target*(run+pad)/run bytes of
/// lines, where `pad` is the measured per-run line-boundary overhead
/// (empirically below the worst-case line-1 because runs share lines with
/// close neighbours). Pre-shrink the generated touch so the rasterised
/// size lands on the target.
[[nodiscard]] constexpr std::uint32_t deflate(std::uint32_t target,
                                              std::uint32_t mean_run,
                                              std::uint32_t pad) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(target) * mean_run / (mean_run + pad));
}

constexpr std::uint32_t kCodePad = 23;
constexpr std::uint32_t kRoPad = 18;
constexpr std::uint32_t kMutPad = 28;

}  // namespace

StackTracer::StackTracer(double code_scale)
    : code_(0x1000'0000, kCodeSparsity),
      data_(0x4000'0000, kRoSparsity, kMutSparsity) {
  LDLP_ASSERT(code_scale > 0.0 && code_scale <= 4.0);
  for (const FnSpec& spec : kFns) {
    const auto size = std::max<std::uint32_t>(
        8, static_cast<std::uint32_t>(spec.size * code_scale));
    const auto target = std::max<std::uint32_t>(
        8, static_cast<std::uint32_t>(spec.target * code_scale));
    const std::uint32_t active =
        size <= target
            ? size
            : std::min(size,
                       deflate(target, kCodeSparsity.mean_run, kCodePad));
    fn_ids_[static_cast<std::size_t>(spec.fn)] =
        code_.define(spec.name, spec.layer, size, active);
  }
  for (const RgnSpec& spec : kRgns) {
    const bool ro = spec.intent == DataIntent::kReadOnly;
    const std::uint32_t mean_item =
        ro ? kRoSparsity.mean_run : kMutSparsity.mean_run;
    const std::uint32_t active =
        deflate(spec.target, mean_item, ro ? kRoPad : kMutPad);
    // Region extent: touched items scattered through a table ~5x larger,
    // so neighbouring items rarely share a cache line.
    const std::uint32_t extent = active * 5 + 64;
    rgn_ids_[static_cast<std::size_t>(spec.rgn)] =
        data_.define(spec.name, spec.layer, spec.intent, extent, active);
  }
}

StackTracer::~StackTracer() {
  if (active_ == this) active_ = nullptr;
}

void StackTracer::activate(trace::TraceBuffer& buffer) noexcept {
  LDLP_ASSERT_MSG(active_ == nullptr || active_ == this,
                  "another StackTracer is already active");
  buffer_ = &buffer;
  buffer.enable();
  active_ = this;
}

void StackTracer::deactivate() noexcept {
  if (buffer_ != nullptr) buffer_->disable();
  buffer_ = nullptr;
  if (active_ == this) active_ = nullptr;
}

void StackTracer::call(Fn fn, double fraction, double revisit) const {
  if (buffer_ == nullptr) return;
  code_.record_call(*buffer_, fn_ids_[static_cast<std::size_t>(fn)], fraction,
                    revisit);
}

void StackTracer::touch(Rgn region, double fraction) const {
  if (buffer_ == nullptr) return;
  data_.record_touch(*buffer_, rgn_ids_[static_cast<std::size_t>(region)],
                     fraction);
}

void StackTracer::set_phase(trace::Phase phase) noexcept {
  if (buffer_ != nullptr) buffer_->set_phase(phase);
}

void StackTracer::packet_bytes(trace::RefKind kind, std::uint32_t len) const {
  if (buffer_ == nullptr) return;
  // Packet contents live in their own address range; Table 1 excludes
  // them via LayerClass::kPacketData, the Figure 1 footers include them.
  static constexpr std::uint64_t kPacketBase = 0x7000'0000;
  buffer_->record(kind, LayerClass::kPacketData, kPacketBase, len,
                  std::max<std::uint32_t>(1, len / 8));
}

}  // namespace ldlp::stack
