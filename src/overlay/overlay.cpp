#include "overlay/overlay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/byteorder.hpp"

namespace ldlp::overlay {
namespace {

// Wire format: every overlay datagram is  u8 type | be32 sender | body.
// Small enough that no message ever fragments (MTU 1500, worst case is a
// gossip push at ~19 bytes of header plus the payload).
enum MsgType : std::uint8_t {
  kJoin = 1,          // (no body) sender wants in via this contact
  kForwardJoin = 2,   // be32 joiner | u8 ttl — HyParView random walk
  kNeighbor = 3,      // u8 priority — promotion request (repair path)
  kNeighborReply = 4, // u8 accept — also the Join/ForwardJoin accept
  kDisconnect = 5,    // (no body) sender evicted us from its active view
  kShuffle = 6,       // be32 origin | u8 ttl | u8 n | n * be32 ids
  kShuffleReply = 7,  // u8 n | n * be32 ids — direct to shuffle origin
  kProbe = 8,         // be32 nonce
  kProbeAck = 9,      // be32 nonce
  kGossip = 10,       // be32 origin | be32 seq | be16 round | be16 len | bytes
  kPrune = 11,        // (no body) demote our link to lazy
  kGraft = 12,        // be32 origin | be32 seq — promote link, send payload
  kIhave = 13,        // u8 n | n * (be32 origin, be32 seq)
};

constexpr std::size_t kMaxDatagram = 1400;

}  // namespace

OverlayNode::OverlayNode(stack::Host& host, NodeId self,
                         const OverlayConfig& config)
    : host_(host), self_(self), cfg_(config) {
  // Per-node stream: a deterministic function of (run seed, identity), so
  // replaying a schedule replays every jitter draw and shuffle sample.
  std::uint64_t mix = cfg_.seed ^ (static_cast<std::uint64_t>(self_) << 17);
  rng_.reseed(splitmix64(mix));
  sock_ = host_.sockets().create(stack::SocketKind::kDatagram);
  const bool bound = host_.udp().bind(cfg_.port, sock_);
  (void)bound;  // One overlay endpoint per host; the port is ours.
  // De-synchronize the periodic timers across the fleet from the start.
  shuffle_at_ = cfg_.membership.shuffle_interval_sec * rng_.uniform(0.5, 1.5);
  digest_at_ = cfg_.plumtree.digest_interval_sec * rng_.uniform(0.5, 1.5);
  host_.set_restart_hook([this] { on_restart(); });
  sync_wheel();
}

OverlayNode::~OverlayNode() {
  host_.set_restart_hook(nullptr);
  if (wake_ != time::kNoTimer) host_.wheel().cancel(wake_);
  host_.udp().unbind(cfg_.port);
  host_.sockets().close(sock_);
}

std::pair<double, time::TimerClass> OverlayNode::next_deadline()
    const noexcept {
  double due = std::numeric_limits<double>::infinity();
  time::TimerClass cls = time::TimerClass::kCadence;
  const auto consider = [&](double d, time::TimerClass c) {
    if (d < due) {
      due = d;
      cls = c;
    }
  };
  if (joining_) consider(join_at_, time::TimerClass::kLiveness);
  if (pending_neighbor_ != kNoNode)
    consider(neighbor_sent_ + 2.0 * cfg_.membership.probe_timeout_sec,
             time::TimerClass::kLiveness);
  for (const Peer& p : peers_) {
    // Mirrors fire_membership_timers: an outstanding probe is waiting on
    // its backoff, otherwise the next scheduled check is probe_due.
    const double d =
        p.probe_sent > 0.0 ? p.probe_sent + p.probe_backoff : p.probe_due;
    consider(d, time::TimerClass::kLiveness);
  }
  for (const Missing& m : missing_)
    consider(m.graft_at, time::TimerClass::kLiveness);
  consider(shuffle_at_, time::TimerClass::kCadence);
  consider(digest_at_, time::TimerClass::kCadence);
  return {due, cls};
}

void OverlayNode::sync_wheel() {
  const auto [due, cls] = next_deadline();
  next_due_ = due;
  time::TimerWheel& wheel = host_.wheel();
  if (!std::isfinite(due)) {
    if (wake_ != time::kNoTimer) {
      wheel.cancel(wake_);
      wake_ = time::kNoTimer;
      wake_due_ = due;
    }
    return;
  }
  if (wake_ != time::kNoTimer && wake_due_ == due) return;
  if (wake_ != time::kNoTimer) wheel.cancel(wake_);
  // Deadlines are decided in fabric time, but a host can only set its
  // alarm "this far from now" on its own (possibly skewed, drifting or
  // stalled) clock — so the wheel holds the virtual-clock translation.
  // Under kClockStall the translated deadline is stranded where the
  // wheel froze, and the snap ending the stall fires it late: exactly
  // the stall-recovery burst the shed guard must survive (and the
  // `clocks` mutation check exploits).
  const double left = due - clock_ref_;
  wake_ = wheel.arm(wheel.now() + (left > 0.0 ? left : 0.0), cls, [] {});
  wake_due_ = due;
}

// ---------------------------------------------------------------------------
// Membership: views

OverlayNode::Peer* OverlayNode::find_peer(NodeId id) noexcept {
  for (Peer& p : peers_)
    if (p.id == id) return &p;
  return nullptr;
}

const OverlayNode::Peer* OverlayNode::find_peer(NodeId id) const noexcept {
  for (const Peer& p : peers_)
    if (p.id == id) return &p;
  return nullptr;
}

bool OverlayNode::in_passive(NodeId id) const noexcept {
  return std::find(passive_.begin(), passive_.end(), id) != passive_.end();
}

bool OverlayNode::is_eager(NodeId id) const noexcept {
  const Peer* p = find_peer(id);
  return p != nullptr && p->eager;
}

NodeId OverlayNode::random_active(NodeId exclude_a,
                                  NodeId exclude_b) noexcept {
  // Reservoir-of-one over the eligible peers: one rng draw per candidate,
  // uniform, no allocation.
  NodeId pick = kNoNode;
  std::uint64_t seen = 0;
  for (const Peer& p : peers_) {
    if (p.id == exclude_a || p.id == exclude_b) continue;
    ++seen;
    if (rng_.bounded(seen) == 0) pick = p.id;
  }
  return pick;
}

void OverlayNode::add_passive(NodeId id) {
  if (id == self_ || id == kNoNode) return;
  if (find_peer(id) != nullptr || in_passive(id)) return;
  if (passive_.size() >= cfg_.membership.passive_max && !passive_.empty())
    passive_[rng_.bounded(passive_.size())] = id;  // evict random in place
  else
    passive_.push_back(id);
}

void OverlayNode::drop_passive(NodeId id) {
  const auto it = std::find(passive_.begin(), passive_.end(), id);
  if (it != passive_.end()) passive_.erase(it);
}

void OverlayNode::add_active(NodeId id, double now_sec) {
  if (id == self_ || id == kNoNode || find_peer(id) != nullptr) return;
  drop_passive(id);
  if (peers_.size() >= cfg_.membership.active_max) {
    // HyParView eviction: a random current member is demoted to passive
    // and told so, keeping the degree bound exact at all times.
    const std::size_t victim = rng_.bounded(peers_.size());
    const NodeId evicted = peers_[victim].id;
    peers_.erase(peers_.begin() + static_cast<std::ptrdiff_t>(victim));
    std::array<std::uint8_t, 5> msg{};
    ByteWriter w(msg);
    w.u8(kDisconnect);
    w.be32(self_);
    send(evicted, msg);
    add_passive(evicted);
  }
  Peer p;
  p.id = id;
  p.eager = true;  // new links start on the tree; prune demotes them
  p.last_heard = now_sec;
  p.probe_due = now_sec + cfg_.membership.probe_idle_sec;
  peers_.push_back(p);
  joining_ = false;
  if (id == pending_neighbor_) {
    pending_neighbor_ = kNoNode;
    if (repair_started_ >= 0.0) {
      repair_latencies_.push_back(now_sec - repair_started_);
      repair_started_ = -1.0;
      ++stats_.repairs_done;
    }
  }
}

void OverlayNode::remove_active(NodeId id, bool dead, double now_sec) {
  (void)now_sec;
  const auto it = std::find_if(peers_.begin(), peers_.end(),
                               [&](const Peer& p) { return p.id == id; });
  if (it == peers_.end()) return;
  peers_.erase(it);
  if (dead) {
    ++stats_.peers_died;
    drop_passive(id);  // a peer we just declared dead is no repair donor
  } else {
    add_passive(id);
  }
}

void OverlayNode::start_repair(double now_sec, bool forced) {
  // The mutation knob gates *failure-driven* repair — probe-death
  // promotion, restart rejoin, vacancy fill. Reacting to an explicit
  // Disconnect (an eviction is protocol, not churn) stays on even when
  // the knob is reverted, so a calm fleet still bootstraps and the churn
  // oracles blame exactly the repair path.
  if (!cfg_.membership.enable_repair && !forced) return;
  if (pending_neighbor_ != kNoNode) return;  // one promotion in flight
  if (repair_started_ < 0.0) {
    repair_started_ = now_sec;
    ++stats_.repairs_started;
  }
  if (passive_.empty()) {
    // Nothing to promote: fall back to a full re-join through the
    // bootstrap contact (the restart-recovery path shares this).
    if (contact_ != kNoNode && peers_.empty()) {
      joining_ = true;
      join_at_ = now_sec;
      join_backoff_ = cfg_.membership.join_retry_sec;
    }
    return;
  }
  const std::size_t i = rng_.bounded(passive_.size());
  pending_neighbor_ = passive_[i];
  // Pull the candidate out of passive while the promotion is in flight:
  // if it is dead it must not be re-drawn forever; if it rejects, it is
  // re-added on reply.
  passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(i));
  neighbor_sent_ = now_sec;
  std::array<std::uint8_t, 6> msg{};
  ByteWriter w(msg);
  w.u8(kNeighbor);
  w.be32(self_);
  w.u8(peers_.empty() ? 1 : 0);  // high priority: we are isolated
  send(pending_neighbor_, msg);
}

// ---------------------------------------------------------------------------
// Membership: API + timers

void OverlayNode::join(NodeId contact, double now_sec) {
  contact_ = contact;
  if (contact == kNoNode) return;  // bootstrap node just waits to be joined
  joining_ = true;
  join_at_ = now_sec;
  join_backoff_ = cfg_.membership.join_retry_sec;
  clock_ref_ = now_sec;
  sync_wheel();  // join_at_ may be earlier than the armed wakeup
}

void OverlayNode::fire_membership_timers(double now_sec) {
  const MembershipConfig& m = cfg_.membership;

  // Join retry loop (capped exponential backoff until the view forms).
  if (joining_ && now_sec >= join_at_) {
    if (!peers_.empty()) {
      joining_ = false;
    } else {
      std::array<std::uint8_t, 5> msg{};
      ByteWriter w(msg);
      w.u8(kJoin);
      w.be32(self_);
      send(contact_, msg);
      ++stats_.joins_sent;
      join_at_ = now_sec + join_backoff_;
      join_backoff_ = std::min(join_backoff_ * 2.0, m.join_backoff_max_sec);
    }
  }

  // Outstanding promotion that never answered: the candidate is gone
  // (we already removed it from passive); draw another.
  if (pending_neighbor_ != kNoNode &&
      now_sec - neighbor_sent_ > 2.0 * m.probe_timeout_sec) {
    pending_neighbor_ = kNoNode;
    start_repair(now_sec);
  }

  // Failure detector. Probes are lazy: a peer we heard from recently is
  // alive by evidence and its probe is deferred (counted — this is the
  // suppressed-timer-work the fleet-scale satellite asks to observe).
  NodeId died = kNoNode;
  for (Peer& p : peers_) {
    if (p.probe_sent > 0.0) {
      if (now_sec - p.probe_sent < p.probe_backoff) continue;
      ++p.probe_misses;
      ++stats_.probe_timeouts;
      if (p.probe_misses >= m.probe_failures) {
        died = p.id;  // at most one death per pass keeps this O(n)
        continue;
      }
      p.probe_nonce = static_cast<std::uint32_t>(rng_());
      p.probe_sent = now_sec;
      p.probe_backoff =
          std::min(p.probe_backoff * 2.0, m.probe_backoff_max_sec);
      std::array<std::uint8_t, 9> msg{};
      ByteWriter w(msg);
      w.u8(kProbe);
      w.be32(self_);
      w.be32(p.probe_nonce);
      send(p.id, msg);
      ++stats_.probes_sent;
    } else if (now_sec >= p.probe_due) {
      if (now_sec - p.last_heard < m.probe_idle_sec) {
        ++stats_.probes_suppressed;
        p.probe_due = p.last_heard + m.probe_idle_sec;
      } else {
        p.probe_nonce = static_cast<std::uint32_t>(rng_());
        p.probe_sent = now_sec;
        p.probe_backoff = m.probe_timeout_sec;
        std::array<std::uint8_t, 9> msg{};
        ByteWriter w(msg);
        w.u8(kProbe);
        w.be32(self_);
        w.be32(p.probe_nonce);
        send(p.id, msg);
        ++stats_.probes_sent;
      }
    }
  }
  if (died != kNoNode) {
    remove_active(died, /*dead=*/true, now_sec);
    start_repair(now_sec);
  }

  // Periodic shuffle: one random walk carrying a sample of our views.
  if (now_sec >= shuffle_at_) {
    shuffle_at_ =
        now_sec + m.shuffle_interval_sec * rng_.uniform(0.75, 1.25);
    const NodeId target = random_active();
    if (target != kNoNode) {
      std::array<std::uint8_t, kMaxDatagram> msg{};
      ByteWriter w(msg);
      w.u8(kShuffle);
      w.be32(self_);
      w.be32(self_);       // walk origin
      w.u8(m.prwl);        // walk length
      std::uint8_t n = 0;
      std::array<std::uint32_t, 16> sample{};
      for (const Peer& p : peers_) {
        if (n >= m.shuffle_active || n >= sample.size()) break;
        if (p.id == target) continue;
        sample[n++] = p.id;
      }
      std::size_t picked = 0;
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        if (picked >= m.shuffle_passive || n >= sample.size()) break;
        // Uniform sample without replacement, single pass.
        const std::size_t left = passive_.size() - i;
        if (rng_.bounded(left) < m.shuffle_passive - picked) {
          sample[n++] = passive_[i];
          ++picked;
        }
      }
      w.u8(n);
      for (std::uint8_t i = 0; i < n; ++i) w.be32(sample[i]);
      send(target, std::span(msg).first(w.position()));
      ++stats_.shuffles_sent;
    }

    // Vacancy fill. HyParView keeps the active view full, and that is a
    // connectivity property, not an optimization: a small component that
    // splits off is internally healthy — no death, no disconnect — so
    // only under-full views ever pull it back. Riding the shuffle cadence
    // keeps promotion attempts paced (one candidate in flight, rejects
    // just return the candidate to passive until the next tick).
    if (m.enable_repair && peers_.size() < m.active_max &&
        pending_neighbor_ == kNoNode && !passive_.empty()) {
      const std::size_t i = rng_.bounded(passive_.size());
      pending_neighbor_ = passive_[i];
      passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(i));
      neighbor_sent_ = now_sec;
      std::array<std::uint8_t, 6> nb{};
      ByteWriter w2(nb);
      w2.u8(kNeighbor);
      w2.be32(self_);
      w2.u8(peers_.empty() ? 1 : 0);
      send(pending_neighbor_, nb);
      ++stats_.vacancy_fills;
    }
  }
}

// ---------------------------------------------------------------------------
// Dissemination

void OverlayNode::remember(MsgId id) {
  recent_.push_back(id);
  while (recent_.size() > cfg_.plumtree.digest_window) recent_.pop_front();
}

void OverlayNode::queue_ihave(NodeId to, MsgId id) {
  lazy_queue_.emplace_back(to, id);
}

void OverlayNode::flush_ihave(double now_sec) {
  (void)now_sec;
  while (!lazy_queue_.empty()) {
    const NodeId to = lazy_queue_.front().first;
    std::array<std::uint8_t, kMaxDatagram> msg{};
    ByteWriter w(msg);
    w.u8(kIhave);
    w.be32(self_);
    const std::size_t count_pos = w.position();
    w.u8(0);
    std::uint8_t n = 0;
    // Collect this destination's ids (deduplicated) and erase as we go.
    std::vector<MsgId> batch;
    for (std::size_t i = 0; i < lazy_queue_.size();) {
      if (lazy_queue_[i].first != to ||
          n >= cfg_.plumtree.ihave_batch_max) {
        ++i;
        continue;
      }
      const MsgId id = lazy_queue_[i].second;
      lazy_queue_.erase(lazy_queue_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      if (std::find(batch.begin(), batch.end(), id) != batch.end()) continue;
      batch.push_back(id);
      w.be32(id.origin);
      w.be32(id.seq);
      ++n;
    }
    msg[count_pos] = n;
    if (n > 0) {
      send(to, std::span(msg).first(w.position()));
      ++stats_.ihave_tx;
    }
  }
}

void OverlayNode::send_digests(double now_sec) {
  if (now_sec < digest_at_) return;
  digest_at_ = now_sec +
               cfg_.plumtree.digest_interval_sec * rng_.uniform(0.75, 1.25);
  if (recent_.empty() || peers_.empty()) return;
  // Anti-entropy: every active peer (eager links lose pushes to the wire
  // too) hears the recent window; anyone missing anything grafts.
  for (const Peer& p : peers_)
    for (const MsgId id : recent_) queue_ihave(p.id, id);
}

void OverlayNode::note_missing(MsgId id, NodeId announcer, double now_sec) {
  for (Missing& m : missing_) {
    if (m.id == id) {
      if (std::find(m.announcers.begin(), m.announcers.end(), announcer) ==
          m.announcers.end())
        m.announcers.push_back(announcer);
      return;
    }
  }
  Missing m;
  m.id = id;
  m.announcers.push_back(announcer);
  m.backoff = cfg_.plumtree.graft_timeout_sec;
  m.graft_at = now_sec + m.backoff;
  missing_.push_back(std::move(m));
}

void OverlayNode::fire_graft_timers(double now_sec) {
  for (Missing& m : missing_) {
    if (now_sec < m.graft_at) continue;
    const NodeId announcer =
        m.announcers[m.next_announcer % m.announcers.size()];
    ++m.next_announcer;  // rotate announcers across retries
    m.backoff = std::min(m.backoff * 2.0, cfg_.plumtree.graft_backoff_max_sec);
    m.graft_at = now_sec + m.backoff;
    // Graft-on-miss: the announcing link becomes a tree link on our side
    // (the peer mirrors it on receipt) and we pull the payload.
    if (Peer* p = find_peer(announcer)) p->eager = true;
    std::array<std::uint8_t, 13> msg{};
    ByteWriter w(msg);
    w.u8(kGraft);
    w.be32(self_);
    w.be32(m.id.origin);
    w.be32(m.id.seq);
    send(announcer, msg);
    ++stats_.grafts_tx;
  }
}

void OverlayNode::relay(MsgId id, std::uint16_t round, NodeId from,
                        double now_sec) {
  (void)now_sec;
  const auto it = messages_.find(id.key());
  if (it == messages_.end()) return;
  const std::vector<std::uint8_t>& payload = it->second;
  std::vector<std::uint8_t> msg(17 + payload.size());
  ByteWriter w(msg);
  w.u8(kGossip);
  w.be32(self_);
  w.be32(id.origin);
  w.be32(id.seq);
  w.be16(round);
  w.be16(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
  for (const Peer& p : peers_) {
    if (p.id == from) continue;
    if (p.eager) {
      send(p.id, msg);
      ++stats_.gossip_tx;
    } else {
      queue_ihave(p.id, id);
    }
  }
}

void OverlayNode::deliver(MsgId id, std::vector<std::uint8_t> payload,
                          double now_sec) {
  (void)now_sec;
  ++stats_.deliveries;
  auto [it, fresh] = messages_.try_emplace(id.key(), std::move(payload));
  (void)it;
  (void)fresh;
  remember(id);
  // Clear any outstanding graft chase for this id.
  for (std::size_t i = 0; i < missing_.size(); ++i) {
    if (missing_[i].id == id) {
      missing_.erase(missing_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (deliver_hook_) deliver_hook_(id, it->second);
}

MsgId OverlayNode::broadcast(std::span<const std::uint8_t> payload,
                             double now_sec) {
  // seq_ deliberately survives restarts (see on_restart): an origin must
  // never reuse a (origin, seq) id or exactly-once becomes unverifiable.
  const MsgId id{self_, seq_++};
  ++stats_.broadcasts;
  deliver(id, std::vector<std::uint8_t>(payload.begin(), payload.end()),
          now_sec);
  relay(id, 0, kNoNode, now_sec);
  return id;
}

// ---------------------------------------------------------------------------
// Wire

void OverlayNode::send(NodeId to, std::span<const std::uint8_t> bytes) {
  if (muted_) return;  // quiescing: drain-only, never feed the fabric
  host_.udp().send(cfg_.port, to, cfg_.port, bytes);
}

void OverlayNode::handle(const stack::Datagram& dgram, double now_sec) {
  const MembershipConfig& m = cfg_.membership;
  ByteReader r(dgram.payload);
  const std::uint8_t type = r.u8();
  const NodeId sender = r.be32();
  if (!r.ok() || sender == self_ || sender == kNoNode) {
    ++stats_.malformed;
    return;
  }

  // Any datagram is liveness evidence: the failure detector stands down.
  if (Peer* p = find_peer(sender)) {
    p->last_heard = now_sec;
    p->probe_sent = 0.0;
    p->probe_misses = 0;
    p->probe_due = now_sec + m.probe_idle_sec;
  }

  switch (type) {
    case kJoin: {
      ++stats_.joins_rx;
      add_active(sender, now_sec);
      std::array<std::uint8_t, 6> reply{};
      ByteWriter w(reply);
      w.u8(kNeighborReply);
      w.be32(self_);
      w.u8(1);
      send(sender, reply);
      // Propagate the joiner through the overlay on random walks.
      for (const Peer& p : peers_) {
        if (p.id == sender) continue;
        std::array<std::uint8_t, 10> fj{};
        ByteWriter fw(fj);
        fw.u8(kForwardJoin);
        fw.be32(self_);
        fw.be32(sender);
        fw.u8(m.arwl);
        send(p.id, fj);
      }
      break;
    }
    case kForwardJoin: {
      const NodeId joiner = r.be32();
      const std::uint8_t ttl = r.u8();
      if (!r.ok() || joiner == kNoNode) {
        ++stats_.malformed;
        break;
      }
      ++stats_.forward_joins;
      if (joiner == self_) break;  // walk looped back to the joiner
      if (ttl == 0 || peers_.size() <= 1) {
        // Walk ends here: take the joiner in and tell it so.
        add_active(joiner, now_sec);
        std::array<std::uint8_t, 6> reply{};
        ByteWriter w(reply);
        w.u8(kNeighborReply);
        w.be32(self_);
        w.u8(1);
        send(joiner, reply);
        break;
      }
      if (ttl == m.prwl) add_passive(joiner);
      const NodeId next = random_active(sender, joiner);
      if (next == kNoNode) {
        add_active(joiner, now_sec);
        std::array<std::uint8_t, 6> reply{};
        ByteWriter w(reply);
        w.u8(kNeighborReply);
        w.be32(self_);
        w.u8(1);
        send(joiner, reply);
        break;
      }
      std::array<std::uint8_t, 10> fj{};
      ByteWriter w(fj);
      w.u8(kForwardJoin);
      w.be32(self_);
      w.be32(joiner);
      w.u8(static_cast<std::uint8_t>(ttl - 1));
      send(next, fj);
      break;
    }
    case kNeighbor: {
      const std::uint8_t priority = r.u8();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      const bool accept =
          priority != 0 || peers_.size() < m.active_max ||
          find_peer(sender) != nullptr;
      if (accept) add_active(sender, now_sec);
      std::array<std::uint8_t, 6> reply{};
      ByteWriter w(reply);
      w.u8(kNeighborReply);
      w.be32(self_);
      w.u8(accept ? 1 : 0);
      send(sender, reply);
      break;
    }
    case kNeighborReply: {
      const std::uint8_t accept = r.u8();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      if (accept != 0) {
        add_active(sender, now_sec);
      } else {
        ++stats_.neighbor_rejects;
        if (sender == pending_neighbor_) {
          pending_neighbor_ = kNoNode;
          add_passive(sender);  // alive but full — still a candidate later
          // Isolation is not acceptable; a mere vacancy is. Retry only
          // while we have no links at all (forced: an explicit reject
          // while isolated is a message-driven reconnect, not the
          // failure-driven repair the mutation knob gates).
          if (peers_.empty())
            start_repair(now_sec, /*forced=*/true);
          else
            repair_started_ = -1.0;
        }
      }
      break;
    }
    case kDisconnect: {
      ++stats_.disconnects_rx;
      remove_active(sender, /*dead=*/false, now_sec);
      if (peers_.empty()) start_repair(now_sec, /*forced=*/true);
      break;
    }
    case kShuffle: {
      const NodeId origin = r.be32();
      const std::uint8_t ttl = r.u8();
      const std::uint8_t n = r.u8();
      std::array<std::uint32_t, 16> ids{};
      for (std::uint8_t i = 0; i < n && i < ids.size(); ++i)
        ids[i] = r.be32();
      if (!r.ok() || origin == kNoNode) {
        ++stats_.malformed;
        break;
      }
      ++stats_.shuffles_rx;
      const NodeId next =
          ttl > 0 && peers_.size() > 1 ? random_active(sender, origin)
                                       : kNoNode;
      if (next != kNoNode && origin != self_) {
        std::array<std::uint8_t, kMaxDatagram> fwd{};
        ByteWriter w(fwd);
        w.u8(kShuffle);
        w.be32(self_);
        w.be32(origin);
        w.u8(static_cast<std::uint8_t>(ttl - 1));
        w.u8(n);
        for (std::uint8_t i = 0; i < n && i < ids.size(); ++i)
          w.be32(ids[i]);
        send(next, std::span(fwd).first(w.position()));
        break;
      }
      // Walk terminates here: merge the sample, reply with our own.
      if (origin == self_) break;
      add_passive(origin);
      for (std::uint8_t i = 0; i < n && i < ids.size(); ++i)
        add_passive(ids[i]);
      std::array<std::uint8_t, kMaxDatagram> reply{};
      ByteWriter w(reply);
      w.u8(kShuffleReply);
      w.be32(self_);
      const std::size_t count_pos = w.position();
      w.u8(0);
      std::uint8_t rn = 0;
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        if (rn >= m.shuffle_passive + m.shuffle_active) break;
        if (passive_[i] == origin) continue;
        w.be32(passive_[i]);
        ++rn;
      }
      reply[count_pos] = rn;
      send(origin, std::span(reply).first(w.position()));
      ++stats_.shuffle_replies;
      break;
    }
    case kShuffleReply: {
      const std::uint8_t n = r.u8();
      std::array<std::uint32_t, 16> ids{};
      for (std::uint8_t i = 0; i < n && i < ids.size(); ++i)
        ids[i] = r.be32();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      for (std::uint8_t i = 0; i < n && i < ids.size(); ++i)
        add_passive(ids[i]);
      break;
    }
    case kProbe: {
      const std::uint32_t nonce = r.be32();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      if (find_peer(sender) == nullptr) {
        // Asymmetric link: the prober holds us active but we dropped it
        // (an eviction whose Disconnect was lost, or we restarted and
        // forgot it). Acking anyway would make the asymmetry stable —
        // every ack resets its failure detector — and silently adopting
        // the prober would re-admit it outside the membership protocol.
        // Symmetrize down: tell it to let go, withhold the ack, and let
        // vacancy fill rebuild the view through passive promotion.
        std::array<std::uint8_t, 5> bye{};
        ByteWriter w(bye);
        w.u8(kDisconnect);
        w.be32(self_);
        send(sender, bye);
        ++stats_.asymmetry_rejects;
        break;
      }
      std::array<std::uint8_t, 9> reply{};
      ByteWriter w(reply);
      w.u8(kProbeAck);
      w.be32(self_);
      w.be32(nonce);
      send(sender, reply);
      break;
    }
    case kProbeAck:
      break;  // the last-heard update above is the whole effect
    case kGossip: {
      MsgId id;
      id.origin = r.be32();
      id.seq = r.be32();
      const std::uint16_t round = r.be16();
      const std::uint16_t len = r.be16();
      const auto payload = r.bytes(len);
      if (!r.ok() || id.origin == kNoNode) {
        ++stats_.malformed;
        break;
      }
      ++stats_.gossip_rx;
      if (messages_.count(id.key()) != 0) {
        // Prune-on-duplicate: this link is redundant for the tree.
        ++stats_.duplicates;
        if (Peer* p = find_peer(sender); p != nullptr && p->eager) {
          p->eager = false;
          std::array<std::uint8_t, 5> prune{};
          ByteWriter w(prune);
          w.u8(kPrune);
          w.be32(self_);
          send(sender, prune);
          ++stats_.prunes_tx;
        }
        break;
      }
      if (Peer* p = find_peer(sender)) p->eager = true;  // tree parent
      deliver(id, std::vector<std::uint8_t>(payload.begin(), payload.end()),
              now_sec);
      relay(id, static_cast<std::uint16_t>(round + 1), sender, now_sec);
      break;
    }
    case kPrune: {
      ++stats_.prunes_rx;
      if (Peer* p = find_peer(sender)) p->eager = false;
      break;
    }
    case kGraft: {
      MsgId id;
      id.origin = r.be32();
      id.seq = r.be32();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      ++stats_.grafts_rx;
      if (Peer* p = find_peer(sender)) p->eager = true;  // mirror the graft
      const auto it = messages_.find(id.key());
      if (it != messages_.end()) {
        const std::vector<std::uint8_t>& payload = it->second;
        std::vector<std::uint8_t> msg(17 + payload.size());
        ByteWriter w(msg);
        w.u8(kGossip);
        w.be32(self_);
        w.be32(id.origin);
        w.be32(id.seq);
        w.be16(0);
        w.be16(static_cast<std::uint16_t>(payload.size()));
        w.bytes(payload);
        send(sender, msg);
        ++stats_.gossip_tx;
      }
      break;
    }
    case kIhave: {
      const std::uint8_t n = r.u8();
      if (!r.ok()) {
        ++stats_.malformed;
        break;
      }
      ++stats_.ihave_rx;
      for (std::uint8_t i = 0; i < n; ++i) {
        MsgId id;
        id.origin = r.be32();
        id.seq = r.be32();
        if (!r.ok()) {
          ++stats_.malformed;
          break;
        }
        if (messages_.count(id.key()) != 0) continue;
        note_missing(id, sender, now_sec);
      }
      break;
    }
    default:
      ++stats_.malformed;
      break;
  }
}

void OverlayNode::poll(double now_sec) {
  // Idle fast path: nothing received, nothing due, nothing queued. A poll
  // the legacy scan would have treated as a pure no-op (no sends, no rng
  // draws, no state changes) returns here, so behavior — and every rng
  // stream — is bit-identical with the scanning version.
  if (now_sec < next_due_ && lazy_queue_.empty() &&
      host_.sockets().pending_datagrams(sock_) == 0)
    return;
  clock_ref_ = now_sec;
  while (auto dgram = host_.sockets().read_datagram(sock_))
    handle(*dgram, now_sec);
  fire_membership_timers(now_sec);
  fire_graft_timers(now_sec);
  send_digests(now_sec);
  flush_ihave(now_sec);
  sync_wheel();
}

// ---------------------------------------------------------------------------
// Crash recovery + introspection

void OverlayNode::on_restart() {
  // Everything protocol lives in RAM and died with the old incarnation.
  // seq_ is the one exception — modelled as read back from stable
  // storage, because reusing a (origin, seq) id would break exactly-once
  // for every peer that remembers the first incarnation's broadcast.
  ++stats_.restarts;
  peers_.clear();
  passive_.clear();
  messages_.clear();
  recent_.clear();
  missing_.clear();
  lazy_queue_.clear();
  pending_neighbor_ = kNoNode;
  repair_started_ = -1.0;
  joining_ = false;
  const double now = host_.now();
  shuffle_at_ =
      now + cfg_.membership.shuffle_interval_sec * rng_.uniform(0.5, 1.5);
  digest_at_ =
      now + cfg_.plumtree.digest_interval_sec * rng_.uniform(0.5, 1.5);
  if (cfg_.membership.enable_repair && contact_ != kNoNode) {
    // Reborn: re-enter through the bootstrap contact, fresh backoff.
    joining_ = true;
    join_at_ = now + cfg_.membership.join_retry_sec * rng_.uniform(0.1, 0.5);
    join_backoff_ = cfg_.membership.join_retry_sec;
  }
  sync_wheel();  // the restart wiped every deadline the wakeup tracked
}

void OverlayNode::fill_view(check::OverlayView& out) const {
  out.self = self_;
  out.live = true;  // the sim overrides from the injector for down hosts
  out.active_max = cfg_.membership.active_max;
  out.passive_max = cfg_.membership.passive_max;
  out.active.clear();
  out.passive.clear();
  out.eager.clear();
  for (const Peer& p : peers_) {
    out.active.push_back(p.id);
    if (p.eager) out.eager.push_back(p.id);
  }
  out.passive.assign(passive_.begin(), passive_.end());
}

// ---------------------------------------------------------------------------
// obs bridge

void publish_overlay(obs::Registry& registry,
                     std::span<const OverlayNode* const> nodes,
                     std::string_view prefix) {
  const std::string p(prefix);
  OverlayStats total;
  auto& repair_hist = registry.histogram(p + ".repair_latency_sec", 1e-3, 1e2);
  for (const OverlayNode* node : nodes) {
    const OverlayStats& s = node->stats();
    total.joins_sent += s.joins_sent;
    total.joins_rx += s.joins_rx;
    total.forward_joins += s.forward_joins;
    total.shuffles_sent += s.shuffles_sent;
    total.shuffles_rx += s.shuffles_rx;
    total.shuffle_replies += s.shuffle_replies;
    total.probes_sent += s.probes_sent;
    total.probes_suppressed += s.probes_suppressed;
    total.probe_timeouts += s.probe_timeouts;
    total.peers_died += s.peers_died;
    total.repairs_started += s.repairs_started;
    total.repairs_done += s.repairs_done;
    total.neighbor_rejects += s.neighbor_rejects;
    total.disconnects_rx += s.disconnects_rx;
    total.broadcasts += s.broadcasts;
    total.deliveries += s.deliveries;
    total.gossip_tx += s.gossip_tx;
    total.gossip_rx += s.gossip_rx;
    total.duplicates += s.duplicates;
    total.ihave_tx += s.ihave_tx;
    total.ihave_rx += s.ihave_rx;
    total.grafts_tx += s.grafts_tx;
    total.grafts_rx += s.grafts_rx;
    total.prunes_tx += s.prunes_tx;
    total.prunes_rx += s.prunes_rx;
    total.restarts += s.restarts;
    total.malformed += s.malformed;
    for (const double latency : node->repair_latencies())
      repair_hist.add(latency);
  }
  registry.counter(p + ".joins").set(total.joins_sent);
  registry.counter(p + ".joins_accepted").set(total.joins_rx);
  registry.counter(p + ".forward_joins").set(total.forward_joins);
  registry.counter(p + ".shuffles").set(total.shuffles_sent);
  registry.counter(p + ".shuffle_replies").set(total.shuffle_replies);
  registry.counter(p + ".probes").set(total.probes_sent);
  registry.counter(p + ".probes_suppressed").set(total.probes_suppressed);
  registry.counter(p + ".probe_timeouts").set(total.probe_timeouts);
  registry.counter(p + ".peers_died").set(total.peers_died);
  registry.counter(p + ".repairs_started").set(total.repairs_started);
  registry.counter(p + ".repairs_done").set(total.repairs_done);
  registry.counter(p + ".neighbor_rejects").set(total.neighbor_rejects);
  registry.counter(p + ".disconnects").set(total.disconnects_rx);
  registry.counter(p + ".broadcasts").set(total.broadcasts);
  registry.counter(p + ".deliveries").set(total.deliveries);
  registry.counter(p + ".gossip_tx").set(total.gossip_tx);
  registry.counter(p + ".gossip_rx").set(total.gossip_rx);
  registry.counter(p + ".duplicates").set(total.duplicates);
  registry.counter(p + ".ihave_tx").set(total.ihave_tx);
  registry.counter(p + ".ihave_rx").set(total.ihave_rx);
  registry.counter(p + ".grafts").set(total.grafts_tx);
  registry.counter(p + ".grafts_served").set(total.grafts_rx);
  registry.counter(p + ".prunes").set(total.prunes_tx);
  registry.counter(p + ".restarts").set(total.restarts);
  registry.counter(p + ".malformed").set(total.malformed);
}

}  // namespace ldlp::overlay
