#include "sim/testbed.h"

#include "util/logging.h"

namespace linuxfp::sim {

LinuxTestbed::LinuxTestbed(const ScenarioConfig& config)
    : config_(config), kernel_("dut") {
  kernel_.add_phys_dev("eth0");
  kern::NetDevice& eth1 = kernel_.add_phys_dev("eth1");
  eth1.set_phys_tx([this](net::Packet&&) { ++forwarded_; });
  kernel_.dev_by_name("eth0")->set_phys_tx([](net::Packet&&) {});

  run("ip link set eth0 up");
  run("ip link set eth1 up");
  run("ip addr add 10.10.1.1/24 dev eth0");
  run("ip addr add 10.10.2.1/24 dev eth1");
  run("sysctl -w net.ipv4.ip_forward=1");

  src_mac_ = net::MacAddr::from_id(0x501);
  gw_mac_ = net::MacAddr::from_id(0x502);
  run("ip neigh add 10.10.1.2 lladdr " + src_mac_.to_string() +
      " dev eth0 nud permanent");
  run("ip neigh add 10.10.2.2 lladdr " + gw_mac_.to_string() +
      " dev eth1 nud permanent");

  for (int i = 0; i < config_.prefixes; ++i) {
    run("ip route add 10." + std::to_string(100 + (i % 150)) + "." +
        std::to_string(i / 150) + ".0/24 via 10.10.2.2 dev eth1");
  }

  // The compiled classifier must be enabled before the blacklist loads so
  // each rule is an O(1) incremental append instead of a rebuild — the same
  // ordering a production restore (iptables-restore) would use.
  if (config_.rule_classifier) kernel_.netfilter().set_classifier_enabled(true);

  // Virtual-gateway filtering: a blacklist of source addresses
  // (paper §VI-A1, "100 rules blocking a blacklist of IP addresses").
  // Addresses walk 10.66.0.0/15 so mega-ruleset scenarios (up to ~128k
  // entries) stay valid; the first 62500 match the paper's original 10.66/16
  // layout exactly.
  if (config_.filter_rules > 0) {
    if (config_.use_ipset) {
      // Size the set to the scenario: mega-ruleset configs exceed the
      // kernel-default 65536 maxelem.
      std::string create = "ipset create blacklist hash:ip";
      if (static_cast<std::size_t>(config_.filter_rules) >
          kern::kIpSetDefaultMaxElem) {
        create += " maxelem " + std::to_string(config_.filter_rules);
      }
      run(create);
      for (int i = 0; i < config_.filter_rules; ++i) {
        run("ipset add blacklist " + blacklist_address(i));
      }
      run("iptables -A FORWARD -m set --match-set blacklist src -j DROP");
    } else {
      for (int i = 0; i < config_.filter_rules; ++i) {
        run("iptables -A FORWARD -s " + blacklist_address(i) + " -j DROP");
      }
    }
  }

  ingress_ifindex_ = kernel_.dev_by_name("eth0")->ifindex();
  eth0_mac_ = kernel_.dev_by_name("eth0")->mac();

  if (config_.accel != Accel::kNone) {
    core::ControllerOptions opts;
    opts.hook = config_.accel == Accel::kLinuxFpTc ? "tc" : "xdp";
    opts.chain = config_.chain;
    opts.flow_cache = config_.flow_cache;
    opts.guard = config_.guard;
    controller_ = std::make_unique<core::Controller>(kernel_, opts);
    controller_->start();
  }
}

LinuxTestbed::~LinuxTestbed() { kernel_.set_trace_ring(nullptr); }

void LinuxTestbed::enable_tracing(std::size_t capacity) {
  trace_ring_ = std::make_unique<util::TraceRing>(capacity);
  kernel_.set_trace_ring(trace_ring_.get());
}

void LinuxTestbed::disable_tracing() {
  kernel_.set_trace_ring(nullptr);
  trace_ring_.reset();
}

util::Json LinuxTestbed::latest_trace_json() const {
  if (!trace_ring_ || trace_ring_->empty()) return util::Json(nullptr);
  return trace_ring_->latest().to_json();
}

std::string LinuxTestbed::name() const {
  std::string suffix = config_.rule_classifier ? " +clf" : "";
  switch (config_.accel) {
    case Accel::kNone:
      return (config_.use_ipset ? "Linux (ipset)" : "Linux") + suffix;
    case Accel::kLinuxFpXdp:
      return (config_.use_ipset ? "LinuxFP (ipset)" : "LinuxFP") + suffix;
    case Accel::kLinuxFpTc:
      return "LinuxFP (tc)" + suffix;
  }
  return "?";
}

void LinuxTestbed::run(const std::string& command) {
  auto st = kern::run_command(kernel_, command);
  LFP_CHECK_MSG(st.ok(), "testbed command failed: " + command);
  if (controller_) controller_->run_once();
}

util::Status LinuxTestbed::try_run(const std::string& command) {
  auto st = kern::run_command(kernel_, command);
  if (controller_) controller_->run_once();
  return st;
}

core::Reaction LinuxTestbed::step_time(std::uint64_t delta_ns) {
  kernel_.set_now_ns(kernel_.now_ns() + delta_ns);
  if (!controller_) return core::Reaction{};
  return controller_->run_once();
}

ProcessOutcome LinuxTestbed::process(net::Packet&& pkt) {
  ProcessOutcome out;
  std::uint64_t before = forwarded_;
  kern::CycleTrace trace;
  auto summary = kernel_.rx(ingress_ifindex_, std::move(pkt), trace);
  out.cycles = trace.total();
  out.forwarded = forwarded_ > before;
  out.dropped_by_policy = summary.drop == kern::Drop::kPolicy ||
                          summary.drop == kern::Drop::kXdpDrop ||
                          summary.drop == kern::Drop::kTcDrop;
  out.fast_path = summary.fast_path;
  return out;
}

net::Packet LinuxTestbed::forward_packet(int prefix_index, std::uint16_t flow,
                                         std::size_t frame_len) const {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::from_octets(
      10, static_cast<std::uint8_t>(100 + (prefix_index % 150)),
      static_cast<std::uint8_t>(prefix_index / 150), 9);
  f.proto = net::kIpProtoUdp;
  f.src_port = static_cast<std::uint16_t>(1024 + flow);
  f.dst_port = 7;
  return net::build_udp_packet(src_mac_, eth0_mac_, f, frame_len);
}

net::Packet LinuxTestbed::forward_tcp_segment(int prefix_index,
                                              std::uint16_t flow,
                                              std::size_t frame_len,
                                              std::uint32_t seq,
                                              std::uint16_t ip_id) const {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::from_octets(
      10, static_cast<std::uint8_t>(100 + (prefix_index % 150)),
      static_cast<std::uint8_t>(prefix_index / 150), 9);
  f.proto = net::kIpProtoTcp;
  f.src_port = static_cast<std::uint16_t>(1024 + flow);
  f.dst_port = 80;
  net::Packet pkt =
      net::build_tcp_packet(src_mac_, eth0_mac_, f, /*flags=*/0x18, frame_len);
  net::Ipv4View ip(pkt.data() + net::kEthHdrLen);
  ip.set_id(ip_id);
  ip.update_checksum();
  net::TcpView tcp(pkt.data() + net::kEthHdrLen + net::kIpv4HdrLen);
  tcp.set_seq(seq);
  return pkt;
}

std::string LinuxTestbed::blacklist_address(int entry) {
  return "10." + std::to_string(66 + (entry / 250) / 250) + "." +
         std::to_string((entry / 250) % 250) + "." +
         std::to_string(1 + entry % 250);
}

net::Packet LinuxTestbed::blacklisted_packet(int entry,
                                             std::uint16_t flow) const {
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::from_octets(
      10, static_cast<std::uint8_t>(66 + (entry / 250) / 250),
      static_cast<std::uint8_t>((entry / 250) % 250),
      static_cast<std::uint8_t>(1 + entry % 250));
  f.dst_ip = net::Ipv4Addr::parse("10.100.0.9").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = static_cast<std::uint16_t>(1024 + flow);
  f.dst_port = 7;
  return net::build_udp_packet(src_mac_, eth0_mac_, f, 64);
}

}  // namespace linuxfp::sim
