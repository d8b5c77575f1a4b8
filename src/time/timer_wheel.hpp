// TimerWheel: a 4.4BSD-callout-style hierarchical timing wheel.
//
// Every retry/cadence surface in the stack (TCP rtx/persist/keepalive/
// TIME_WAIT, ARP re-requests, DNS retry ladders, RPC leg RTOs, overlay
// probe/shuffle/graft cadences) used to rediscover its own deadlines by
// scanning its state once per scheduler pass — per-pass overhead of
// exactly the kind the paper indicts for small messages. The wheel turns
// that into O(1) arm/cancel and an advance whose cost is proportional to
// time passed plus timers actually due, so an idle host costs nothing
// and ldlp::net::Fabric can skip its tick rounds entirely.
//
// Determinism contract: timers fire in ascending (deadline, arm-seq)
// order within one advance, so two runs arming the same timers fire the
// same callbacks in the same order regardless of wheel occupancy or
// --jobs. Arming a timer in the past is legal and fires on the next
// advance; cancelling an already-fired or already-cancelled timer is a
// no-op returning false.
//
// Fault surface: set_storm_level(n) models a timer storm (spurious
// wakeups): each advance fires up to n not-yet-due timers early, capped
// at kStormSpuriousCap — the excess is shed. The shed_guard config knob
// is a mutation revert-guard (precedent: TcpConfig::enable_persist_timer)
// — when reverted, an advance that jumps far past a deadline (the
// clock-stall recovery snap) sheds the overdue timer instead of firing
// it, which recover::DeadlineOracle must catch.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace ldlp::time {

/// Opaque timer handle. 0 is never a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

/// Liveness classification, carried per timer so storm shedding and the
/// deadline oracle can tell "the connection dies without this" apart
/// from background cadence and pure state expiry.
enum class TimerClass : std::uint8_t {
  kLiveness,  ///< Retransmit/probe timers: losing one wedges progress.
  kCadence,   ///< Periodic background work (shuffles, digests, delack).
  kExpiry,    ///< State garbage collection (TIME_WAIT, cache TTLs).
};
inline constexpr std::size_t kTimerClassCount = 3;

[[nodiscard]] const char* timer_class_name(TimerClass cls) noexcept;

struct WheelConfig {
  /// Mutation revert-guard: true (default) fires every overdue timer on
  /// a large clock jump (stall recovery); false re-introduces the bug
  /// class where recovery "sheds" stale timers — they silently never
  /// fire — so the deadline oracle can prove it would catch it.
  bool shed_guard = true;
};

struct WheelStats {
  std::uint64_t arms = 0;
  std::uint64_t fires = 0;           ///< On-time (due) fires.
  std::uint64_t cancels = 0;
  std::uint64_t spurious_fires = 0;  ///< Storm-induced early fires.
  std::uint64_t shed = 0;            ///< Fires dropped (storm cap / guard off).
  std::uint64_t cascades = 0;        ///< Timers re-filed from outer levels.
  std::uint64_t max_armed = 0;       ///< High-water mark of live timers.
};

/// Event stream for oracles (recover::DeadlineOracle subscribes).
struct TimerEvent {
  enum class Kind : std::uint8_t { kArm, kFire, kCancel, kShed, kSpurious };
  Kind kind;
  TimerId id = kNoTimer;
  TimerClass cls = TimerClass::kCadence;
  double deadline = 0.0;  ///< The armed deadline.
  double now = 0.0;       ///< Wheel time at the event.
};

class TimerWheel {
 public:
  static constexpr double kTickSec = 1e-3;  ///< Resolution; deadlines round up.
  /// Overdue-beyond-this threshold for the reverted guard's shedding.
  static constexpr double kStaleShedSec = 0.25;
  /// Max spurious (early) fires per advance under a timer storm; demand
  /// beyond the cap is shed so a storm cannot starve due timers.
  static constexpr int kStormSpuriousCap = 8;

  explicit TimerWheel(WheelConfig config = {});

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arm a one-shot timer. The callback runs inside advance_to(); it may
  /// arm or cancel timers freely (a timer armed in the past from inside
  /// a callback fires on the *next* advance, not the current one).
  [[nodiscard]] TimerId arm(double deadline_sec, TimerClass cls,
                            std::function<void()> fn);

  /// O(1). False if the id already fired, was cancelled, or never existed.
  bool cancel(TimerId id);

  /// Keep one timer at `deadline_sec`: returns `id` untouched when it is
  /// already armed there; otherwise cancels it and arms a fresh timer, or
  /// nothing (returning kNoTimer) when the deadline is +inf.
  template <class Fn>
  [[nodiscard]] TimerId rearm(TimerId id, double deadline_sec, TimerClass cls,
                              Fn&& fn) {
    const Node* node = resolve(id);
    if (node != nullptr && node->deadline == deadline_sec) return id;
    if (node != nullptr) cancel(id);
    if (!std::isfinite(deadline_sec)) return kNoTimer;
    return arm(deadline_sec, cls, std::forward<Fn>(fn));
  }

  [[nodiscard]] bool armed(TimerId id) const noexcept;
  /// Armed deadline of `id`, +inf when not armed.
  [[nodiscard]] double deadline_of(TimerId id) const noexcept;

  /// Advance wheel time and fire everything due, in (deadline, seq)
  /// order. Time never moves backwards; a stale `now_sec` is a no-op
  /// (still applies storm-induced spurious fires).
  void advance_to(double now_sec);

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Earliest armed deadline, +inf when the wheel is empty. O(1) while
  /// the earliest timer stays armed; after it leaves, one scan of the
  /// due-now list, the first occupied slot per level and the overflow
  /// list — this is what makes event-driven idle ticks possible.
  [[nodiscard]] double next_deadline() const noexcept;
  [[nodiscard]] std::size_t armed_count() const noexcept { return live_; }
  [[nodiscard]] const WheelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] WheelConfig& config() noexcept { return cfg_; }

  /// Timer-storm intensity: >0 fires up to that many not-yet-due timers
  /// spuriously per advance (capped at kStormSpuriousCap, excess shed).
  void set_storm_level(int level) noexcept { storm_ = level; }

  void set_observer(std::function<void(const TimerEvent&)> observer) {
    observer_ = std::move(observer);
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;  // 64
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  /// Every live node is linked on exactly one list: slot `slot` of level
  /// `level` is list level * kSlots + slot, then come the overflow list
  /// (beyond the level-3 horizon) and the due-now list (tick reached;
  /// fires on the next advance).
  static constexpr std::uint16_t kOverflow = kLevels * kSlots;
  static constexpr std::uint16_t kDueNow = kOverflow + 1;
  static constexpr std::uint16_t kLists = kDueNow + 1;
  static constexpr std::uint16_t kNoList = kLists;  ///< Free node.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Linked by index, not pointer: nodes_ reallocates as it grows.
  struct Node {
    double deadline = 0.0;
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;      ///< Arm order; firing tiebreaker.
    std::uint32_t gen = 0;      ///< Bumped on fire/cancel; stale-id guard.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  ///< Also the free-stack link.
    std::uint16_t list = kNoList;
    TimerClass cls = TimerClass::kCadence;
    std::function<void()> fn;
  };

  [[nodiscard]] static std::uint32_t index_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  [[nodiscard]] static std::uint32_t gen_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] TimerId id_of(std::uint32_t index) const noexcept {
    return (static_cast<std::uint64_t>(nodes_[index].gen) << 32) |
           (index + 1ull);
  }
  /// Storm and next_deadline() order: (deadline, TimerId).
  [[nodiscard]] bool sooner(std::uint32_t a, std::uint32_t b) const noexcept;
  [[nodiscard]] const Node* resolve(TimerId id) const noexcept;
  void link(std::uint32_t index, std::uint16_t list) noexcept;
  void unlink(std::uint32_t index) noexcept;
  void place(std::uint32_t index) noexcept;  ///< File by its tick delta.
  /// Re-place every node on `list`, leaving it empty; returns how many.
  std::uint64_t refile(std::uint16_t list) noexcept;
  void emit(TimerEvent::Kind kind, const Node& node, TimerId id);
  /// Unlink a node and free it (bump gen), returning its callback.
  std::function<void()> detach(std::uint32_t index);
  /// Earliest live node by sooner(), kNil when the wheel is empty.
  [[nodiscard]] std::uint32_t earliest() const noexcept;

  WheelConfig cfg_;
  double now_ = 0.0;
  std::uint64_t now_tick_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  int storm_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;  ///< Stack of freed nodes, linked by next.
  std::array<std::uint32_t, kLists> heads_;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< Non-empty slot bits.
  /// Cached earliest(); valid while earliest_known_.
  mutable std::uint32_t earliest_ = kNil;
  mutable bool earliest_known_ = true;
  /// advance_to()'s firing batch; a member so its capacity carries over.
  std::vector<TimerId> due_;
  WheelStats stats_;
  std::function<void(const TimerEvent&)> observer_;
};

}  // namespace ldlp::time
