#include "time/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>


namespace ldlp::time {

const char* timer_class_name(TimerClass cls) noexcept {
  switch (cls) {
    case TimerClass::kLiveness: return "liveness";
    case TimerClass::kCadence: return "cadence";
    case TimerClass::kExpiry: return "expiry";
  }
  return "?";
}

TimerWheel::TimerWheel(WheelConfig config) : cfg_(config) {
  heads_.fill(kNil);
}

bool TimerWheel::sooner(std::uint32_t a, std::uint32_t b) const noexcept {
  const double da = nodes_[a].deadline;
  const double db = nodes_[b].deadline;
  if (da != db) return da < db;
  return id_of(a) < id_of(b);
}

const TimerWheel::Node* TimerWheel::resolve(TimerId id) const noexcept {
  if (id == kNoTimer) return nullptr;
  const std::uint32_t index = index_of(id);
  if (index >= nodes_.size()) return nullptr;
  const Node& node = nodes_[index];
  if (node.list == kNoList || node.gen != gen_of(id)) return nullptr;
  return &node;
}

TimerId TimerWheel::arm(double deadline_sec, TimerClass cls,
                        std::function<void()> fn) {
  std::uint32_t index = free_;
  if (index != kNil) {
    free_ = nodes_[index].next;
  } else {
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[index];
  node.deadline = deadline_sec;
  // Round the deadline tick up so a timer never fires before its time;
  // the epsilon keeps an exactly-on-boundary deadline on its boundary.
  const double ticks = deadline_sec / kTickSec;
  node.tick = ticks <= 0.0
                  ? 0
                  : static_cast<std::uint64_t>(std::ceil(ticks - 1e-9));
  node.seq = ++seq_;
  node.cls = cls;
  node.fn = std::move(fn);
  place(index);
  if (earliest_known_ && (earliest_ == kNil || sooner(index, earliest_)))
    earliest_ = index;
  ++live_;
  ++stats_.arms;
  stats_.max_armed = std::max<std::uint64_t>(stats_.max_armed, live_);
  emit(TimerEvent::Kind::kArm, node, id_of(index));
  return id_of(index);
}

void TimerWheel::link(std::uint32_t index, std::uint16_t list) noexcept {
  Node& node = nodes_[index];
  node.list = list;
  node.prev = kNil;
  node.next = heads_[list];
  if (node.next != kNil) nodes_[node.next].prev = index;
  heads_[list] = index;
  if (list < kOverflow) occupied_[list / kSlots] |= 1ull << (list % kSlots);
}

void TimerWheel::unlink(std::uint32_t index) noexcept {
  const Node& node = nodes_[index];
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    heads_[node.list] = node.next;
    if (node.next == kNil && node.list < kOverflow)
      occupied_[node.list / kSlots] &= ~(1ull << (node.list % kSlots));
  }
}

void TimerWheel::place(std::uint32_t index) noexcept {
  const std::uint64_t tick = nodes_[index].tick;
  if (tick <= now_tick_) {
    link(index, kDueNow);
    return;
  }
  const std::uint64_t delta = tick - now_tick_;
  for (int level = 0; level < kLevels; ++level) {
    if (delta < (1ull << (kSlotBits * (level + 1)))) {
      const std::uint64_t slot = (tick >> (kSlotBits * level)) & kSlotMask;
      link(index, static_cast<std::uint16_t>(level * kSlots + slot));
      return;
    }
  }
  link(index, kOverflow);
}

std::uint64_t TimerWheel::refile(std::uint16_t list) noexcept {
  // Take the whole list first: an overflow timer may file back onto it.
  std::uint32_t index = heads_[list];
  heads_[list] = kNil;
  if (list < kOverflow) occupied_[list / kSlots] &= ~(1ull << (list % kSlots));
  std::uint64_t moved = 0;
  while (index != kNil) {
    const std::uint32_t next = nodes_[index].next;
    place(index);
    ++moved;
    index = next;
  }
  return moved;
}

std::function<void()> TimerWheel::detach(std::uint32_t index) {
  unlink(index);
  Node& node = nodes_[index];
  std::function<void()> fn = std::move(node.fn);
  node.fn = nullptr;
  node.list = kNoList;
  ++node.gen;
  node.next = free_;
  free_ = index;
  --live_;
  if (index == earliest_) {
    earliest_ = kNil;
    earliest_known_ = live_ == 0;  // an empty wheel has no earliest
  }
  return fn;
}

bool TimerWheel::cancel(TimerId id) {
  const Node* node = resolve(id);
  if (node == nullptr) return false;
  emit(TimerEvent::Kind::kCancel, *node, id);
  (void)detach(index_of(id));
  ++stats_.cancels;
  return true;
}

bool TimerWheel::armed(TimerId id) const noexcept {
  return resolve(id) != nullptr;
}

double TimerWheel::deadline_of(TimerId id) const noexcept {
  const Node* node = resolve(id);
  return node != nullptr ? node->deadline
                         : std::numeric_limits<double>::infinity();
}

std::uint32_t TimerWheel::earliest() const noexcept {
  if (earliest_known_) return earliest_;
  std::uint32_t best = kNil;
  const auto scan = [&](std::uint16_t list) {
    for (std::uint32_t i = heads_[list]; i != kNil; i = nodes_[i].next)
      if (best == kNil || sooner(i, best)) best = i;
  };
  scan(kDueNow);
  // A level's slots hold one tick block each, in rotation order from the
  // slot after the current one, so its first occupied slot holds that
  // level's earliest timers.
  for (int level = 0; level < kLevels; ++level) {
    const std::uint64_t bits = occupied_[level];
    if (bits == 0) continue;
    const std::uint64_t first =
        ((now_tick_ >> (kSlotBits * level)) + 1) & kSlotMask;
    const std::uint64_t slot =
        (first + std::countr_zero(std::rotr(bits, static_cast<int>(first)))) &
        kSlotMask;
    scan(static_cast<std::uint16_t>(level * kSlots + slot));
  }
  scan(kOverflow);
  earliest_ = best;
  earliest_known_ = true;
  return best;
}

double TimerWheel::next_deadline() const noexcept {
  const std::uint32_t index = earliest();
  return index != kNil ? nodes_[index].deadline
                       : std::numeric_limits<double>::infinity();
}

void TimerWheel::emit(TimerEvent::Kind kind, const Node& node, TimerId id) {
  if (!observer_) return;
  observer_(TimerEvent{kind, id, node.cls, node.deadline, now_});
}

void TimerWheel::advance_to(double now_sec) {
  if (now_sec > now_) {
    now_ = now_sec;
    const std::uint64_t target =
        static_cast<std::uint64_t>(now_ / kTickSec + 1e-9);

    // Turn the wheel up to the target tick; every timer whose tick comes
    // lands on the due-now list, beside the ones armed in the past
    // *before* this advance. The batch fires from a snapshot, so arms in
    // the past made by callbacks wait on that list for the next advance.
    while (now_tick_ < target) {
      ++now_tick_;
      // Cascade outer levels at their rotation boundaries first, so a
      // refiled timer due at this very tick joins this batch.
      for (int level = 1; level < kLevels; ++level) {
        if ((now_tick_ & ((1ull << (kSlotBits * level)) - 1)) != 0) break;
        const std::uint64_t slot = (now_tick_ >> (kSlotBits * level)) & kSlotMask;
        stats_.cascades +=
            refile(static_cast<std::uint16_t>(level * kSlots + slot));
        // The top level wrapped: overflow timers may now fit.
        if (level == kLevels - 1) stats_.cascades += refile(kOverflow);
      }
      (void)refile(static_cast<std::uint16_t>(now_tick_ & kSlotMask));
    }

    std::vector<TimerId>& due = due_;
    due.clear();
    for (std::uint32_t i = heads_[kDueNow]; i != kNil; i = nodes_[i].next)
      due.push_back(id_of(i));
    // Deterministic firing order regardless of slot/cascade geometry.
    std::sort(due.begin(), due.end(), [this](TimerId a, TimerId b) {
      const Node& na = nodes_[index_of(a)];
      const Node& nb = nodes_[index_of(b)];
      if (na.deadline != nb.deadline) return na.deadline < nb.deadline;
      return na.seq < nb.seq;
    });
    for (const TimerId id : due) {
      const Node* node = resolve(id);
      if (node == nullptr) continue;  // cancelled by an earlier callback
      if (!cfg_.shed_guard && now_ - node->deadline > kStaleShedSec) {
        // Reverted guard: a deadline left far behind by a clock jump is
        // "stale" and silently dropped — the bug class DeadlineOracle
        // exists to catch.
        emit(TimerEvent::Kind::kShed, *node, id);
        (void)detach(index_of(id));
        ++stats_.shed;
        continue;
      }
      emit(TimerEvent::Kind::kFire, *node, id);
      std::function<void()> fn = detach(index_of(id));
      ++stats_.fires;
      if (fn) fn();  // may arm/cancel; nodes_ may grow — no refs held
    }
  }

  // Timer storm: fire up to `storm_` not-yet-due timers early (earliest
  // first, so the blast is deterministic), shedding demand beyond the
  // cap. Handlers tolerate early wakeups by re-checking their own state
  // deadlines and re-arming, so a storm costs work, not correctness —
  // and because due timers above fire unconditionally, a storm can
  // never starve them.
  if (storm_ > 0) {
    int quota = std::min(storm_, kStormSpuriousCap);
    stats_.shed += static_cast<std::uint64_t>(storm_ - quota);
    for (; quota > 0; --quota) {
      const std::uint32_t index = earliest();
      if (index == kNil) break;
      const TimerId id = id_of(index);
      emit(TimerEvent::Kind::kSpurious, nodes_[index], id);
      std::function<void()> fn = detach(index);
      ++stats_.spurious_fires;
      if (fn) fn();
    }
  }
}

}  // namespace ldlp::time
