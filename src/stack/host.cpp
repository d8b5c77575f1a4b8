#include "stack/host.hpp"

#include "fault/injector.hpp"
#include "stack/footprints.hpp"

namespace ldlp::stack {

Host::Host(HostConfig config)
    : cfg_(std::move(config)),
      pool_(cfg_.pool_mbufs, cfg_.pool_clusters),
      dev_(cfg_.name + ".le0", cfg_.mac, pool_) {
  eth_ = std::make_unique<EthLayer>(dev_, cfg_.ip, wheel_);
  ip_ = std::make_unique<Ip4Layer>(*eth_, cfg_.ip, cfg_.mtu);
  sock_ = std::make_unique<SocketLayer>();
  tcp_ = std::make_unique<TcpLayer>(*ip_, *sock_, wheel_, cfg_.tcp);
  udp_ = std::make_unique<UdpLayer>(*ip_, *sock_);

  ip_->set_clock(&now_);
  tcp_->set_clock(&now_);
  igmp_ = std::make_unique<IgmpHost>(*ip_, &now_, wheel_);
  ip_->set_igmp(igmp_.get());

  eth_id_ = graph_.add_layer(*eth_);
  const core::LayerId ip_id = graph_.add_layer(*ip_);
  const core::LayerId tcp_id = graph_.add_layer(*tcp_);
  const core::LayerId udp_id = graph_.add_layer(*udp_);
  const core::LayerId sock_id = graph_.add_layer(*sock_);

  graph_.connect(eth_id_, ip_id, ethports::kIp);
  graph_.connect(ip_id, tcp_id, ipports::kTcp);
  graph_.connect(ip_id, udp_id, ipports::kUdp);
  graph_.connect(tcp_id, sock_id, 0);

  graph_.set_mode(cfg_.mode);
  graph_.set_batch_limit(cfg_.batch_limit);
  if (cfg_.rx_queues > 1) dev_.set_rx_queues(cfg_.rx_queues, cfg_.rx_symmetric);
}

void Host::attach_fault(fault::FaultInjector* injector) noexcept {
  if (fault_ != nullptr && injector == nullptr)
    fault_->release_pool_pressure();
  fault_ = injector;
  dev_.set_fault(injector);
  if (fault_ != nullptr) fault_->set_clock(&now_);
}

void Host::restart() {
  tcp_->crash();
  sock_->crash();
  eth_->arp().flush();
  eth_->resync_wheel();  // nothing pending → the retry timer disarms
  ip_->flush_reassembly();
  (void)dev_.clear_rx_ring();
  if (restart_hook_) restart_hook_();
}

void Host::advance(double dt_sec) {
  real_now_ += dt_sec;
  // The virtual clock follows real time through any clock-fault
  // episodes; without them the mapping is the identity bit for bit.
  now_ = fault_ != nullptr ? vclock_.advance(real_now_, &fault_->plan())
                           : vclock_.advance(real_now_, nullptr);
  if (fault_ != nullptr && fault_->host_restart_pending()) restart();
  if (fault_ != nullptr) {
    const fault::Episode* storm =
        fault_->plan().active(fault::FaultKind::kTimerStorm, real_now_);
    wheel_.set_storm_level(storm != nullptr ? static_cast<int>(storm->param)
                                            : 0);
  }
  // Every retry and report timer lives on the wheel; only reassembly
  // TTLs (a cheap, bounded scan) remain pass-driven.
  wheel_.advance_to(now_);
  ip_->expire_reassembly();
  if (fault_ != nullptr) fault_->apply_pool_pressure(pool_);
}

buf::Packet Host::pull_frame(std::size_t queue) {
  if (dev_.rx_pending(queue) == 0) return {};
  // Device interrupt path: vector through the interrupt glue, copy the
  // frame out of device memory into a fresh mbuf chain.
  trace_fn(Fn::kXentInt);
  trace_fn(Fn::kInterrupt);
  trace_fn(Fn::kPalSwpIpl);
  trace_fn(Fn::kAsicIntr);
  trace_fn(Fn::kTcIoIntr);
  trace_fn(Fn::kLeIntr);
  trace_fn(Fn::kCopyFromBufGap2);
  trace_fn(Fn::kCopyFromBufGap16);
  trace_fn(Fn::kMalloc);
  trace_rgn(Rgn::kDevConfigRo);
  trace_rgn(Rgn::kDevRingMut);
  trace_rgn(Rgn::kBufFreelistMut);
  trace_rgn(Rgn::kBufBucketsRo, 0.5);

  buf::Packet frame = dev_.receive_queue(queue);
  if (frame) trace_pkt(trace::RefKind::kWrite, frame.length());
  return frame;  // empty: pool exhausted, frame stays in device memory
}

void Host::inject_rx(buf::Packet frame) {
  // Post-interrupt softirq dispatch.
  trace_fn(Fn::kDoSir);
  trace_fn(Fn::kSpl0);
  trace_fn(Fn::kRei);
  graph_.inject(eth_id_, core::Message(std::move(frame), now_));
}

std::size_t Host::pump_queue(std::size_t queue, std::size_t max_frames) {
  std::size_t handled = 0;
  while (handled < max_frames && dev_.rx_pending(queue) > 0) {
    buf::Packet frame = pull_frame(queue);
    if (!frame) break;  // pool exhausted; leave frames in device memory
    inject_rx(std::move(frame));
    ++handled;
  }
  // Per-shard LDLP pass: this queue's backlog runs through the layers as
  // one batch before the next shard is touched.
  if (handled > 0 && cfg_.mode == core::SchedMode::kLdlp) graph_.run();
  return handled;
}

std::size_t Host::pump(std::size_t max_frames) {
  dev_.poll();  // surface any delay-released frames first
  std::size_t handled = 0;
  for (std::size_t q = 0; q < dev_.rx_queue_count(); ++q) {
    if (handled >= max_frames) break;
    handled += pump_queue(q, max_frames - handled);
  }
  if (handled > 0 && post_pass_hook_) post_pass_hook_();
  return handled;
}

}  // namespace ldlp::stack
