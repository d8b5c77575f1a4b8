// ldlp::pipe — an explicit staged receive path: parse -> steer -> proto
// -> socket, the FlexTOE-style counterpoint to LDLP's layer batching.
//
// Each stage owns a bounded queue built on the intrusive m_nextpkt
// PacketQueue, and frames move between stages by pointer hand-off only —
// the mbuf chain allocated at the device interrupt is the one the socket
// layer appends, zero copies at any boundary (HostAuditor can verify: the
// stage queues hold chains owned by the host pool, one chain per queued
// frame). The stage bodies are carved out of stack::Host's rx path:
//
//   parse  — Host::pull_frame (device interrupt + mbuf copy-in), then
//            header classification via stack::FlowHash::classify. The
//            per-frame classification is data-parallel and runs on a
//            par::WorkerPool when one is supplied, writing into
//            frame-indexed slots so the result is bit-identical for any
//            --jobs (the determinism rule of ldlp::par).
//   steer  — pins the frame's flow to one proto/socket lane with the
//            Toeplitz hash (lane = hash % lanes), so frames of one flow
//            never reorder across stages: lanes are FIFO and drained in
//            lane order.
//   proto  — injects the lane's frames into the host's StackGraph
//            (eth -> ip -> tcp/udp), whose schedule depends on the mode.
//   socket — the graph's socket layer; its LayerStats are surfaced as
//            this stage's counters.
//
// One PipelineConfig runs the same code three ways:
//
//   kLdlp      — today's layer-blocked batching: each lane's backlog is
//                injected whole and StackGraph::run() drains layer by
//                layer (i-cache amortisation within the batch).
//   kPipelined — per-stage hand-off with no batching anywhere: one frame
//                moves parse -> steer -> proto -> socket before the next
//                frame is touched (batch of one at every stage).
//   kHybrid    — pipelined stages, each draining an LDLP batch: parse
//                pops batch_limit frames, hands them to steer, and the
//                graph advances them one *layer* per run_stage_pass().
//
// All three deliver per-flow FIFO, so an end-to-end TCP transfer is
// byte-identical across modes — which is what tests/test_pipe.cpp pins.
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "buf/packet_queue.hpp"
#include "common/ring.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "stack/host.hpp"

namespace ldlp::pipe {

enum class RxMode : std::uint8_t { kLdlp, kPipelined, kHybrid };

[[nodiscard]] const char* rx_mode_name(RxMode mode) noexcept;

enum class Stage : std::uint8_t { kParse = 0, kSteer = 1, kProto = 2,
                                  kSocket = 3 };
inline constexpr std::size_t kStageCount = 4;

[[nodiscard]] const char* stage_name(Stage stage) noexcept;

struct PipelineConfig {
  RxMode mode = RxMode::kLdlp;
  /// Proto/socket lanes; a flow is pinned to lane hash % lanes for life.
  std::size_t lanes = 1;
  /// Bound on every stage queue; a full queue drops (never blocks).
  std::size_t stage_queue_cap = 512;
  /// kHybrid: frames per stage batch (0 = whatever is queued). Ignored by
  /// kLdlp (whole backlog) and kPipelined (always 1).
  std::size_t batch_limit = 0;
  /// Prefetch the next frame's header at the top of the stage loops.
  bool prefetch = false;
  /// Symmetric flow hash (co-steer both directions onto one lane).
  bool symmetric = false;
  std::uint64_t hash_seed = stack::FlowHash::kDefaultKeySeed;
};

/// Per-stage accounting. Conservation (audited):
///   offered == enqueued + drops;  enqueued == handed_off + queue_len.
struct StageCounters {
  std::uint64_t offered = 0;    ///< Frames presented to the stage queue.
  std::uint64_t enqueued = 0;   ///< Accepted by the bounded queue.
  std::uint64_t handed_off = 0; ///< Left the stage toward the next one.
  std::uint64_t drops = 0;      ///< Refused by the bounded queue.
  std::uint64_t activations = 0;///< Times the stage started draining.
  std::size_t queue_len = 0;    ///< Live queue length at snapshot time.
  std::size_t high_water = 0;
};

class StagedRx {
 public:
  /// The host must be in SchedMode::kLdlp — the staged path schedules the
  /// graph itself (run() or run_stage_pass()), which needs queued layers.
  StagedRx(stack::Host& host, PipelineConfig cfg);

  StagedRx(const StagedRx&) = delete;
  StagedRx& operator=(const StagedRx&) = delete;

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }

  /// One scheduler pass: poll the device, pull up to `max_frames` into the
  /// parse stage, then sweep the stages under the configured mode until
  /// every stage queue is dry. Runs the host post-pass hook when frames
  /// were handled, exactly like Host::pump(). `pool` (optional) fans the
  /// parse stage's classification out over the WorkerPool. Returns frames
  /// pulled from the device.
  std::size_t pump(std::size_t max_frames = SIZE_MAX,
                   par::WorkerPool* pool = nullptr);

  /// Snapshot of one stage's counters (socket reads the graph's layer).
  [[nodiscard]] StageCounters counters(Stage stage) const;

  /// Frames currently queued in one proto lane.
  [[nodiscard]] std::size_t lane_queue_len(std::size_t lane) const {
    return proto_q_[lane].size();
  }

  /// Stage-queue invariants: counter conservation per stage, steer
  /// metadata sync, and mbuf ownership — every chain queued at a stage
  /// boundary is owned by this host's pool (zero-copy hand-off means no
  /// foreign or copied chains can appear). Returns violations (empty =
  /// clean); hang it on a check::HostAuditor via add_audit().
  [[nodiscard]] std::vector<std::string> audit() const;

  /// Mirror the per-stage counters into `registry` as <prefix>.* —
  /// pipe.parse.offered, pipe.proto.drops, pipe.socket.handed_off, ...
  void publish(obs::Registry& registry,
               std::string_view prefix = "pipe") const;

 private:
  [[nodiscard]] bool offer(StageCounters& c, buf::PacketQueue& q,
                           buf::Packet pkt);
  [[nodiscard]] std::uint32_t classify_hash(const buf::Packet& pkt) const;
  void run_parse(std::size_t limit, par::WorkerPool* pool);
  void run_steer();
  void run_proto();

  stack::Host& host_;
  PipelineConfig cfg_;
  stack::FlowHash hash_;
  buf::PacketQueue parse_q_;
  buf::PacketQueue steer_q_;
  /// Flow hash of each frame in steer_q_, same order (parse computes it
  /// once; steer only folds it onto a lane).
  Ring<std::uint32_t> steer_meta_;
  /// run_parse's batch and its flow hashes, kept between passes so the
  /// stage allocates nothing once it has seen its largest batch.
  std::vector<buf::Packet> parse_batch_;
  std::vector<std::uint32_t> parse_hashes_;
  /// One bounded queue per lane (deque: PacketQueue is pinned in place).
  std::deque<buf::PacketQueue> proto_q_;
  StageCounters parse_;
  StageCounters steer_;
  StageCounters proto_;
  core::LayerStats sock_base_;  ///< Socket-layer stats at construction.
};

}  // namespace ldlp::pipe
