// Network device model (struct net_device analogue) plus the hook-attachment
// interface the eBPF layer plugs into.
//
// The kernel library deliberately does not depend on the ebpf library: fast
// path programs attach through the PacketProgram interface, which the ebpf
// loader (and the Polycube baseline) implement. This mirrors the kernel/XDP
// layering in Linux.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/ipaddr.h"
#include "net/mac.h"
#include "net/packet.h"

namespace linuxfp::kern {

class Kernel;

// A program attached at a packet hook (XDP or TC). Implemented by the eBPF
// runtime; the kernel only sees verdicts and cycle charges.
class PacketProgram {
 public:
  enum class Verdict {
    kPass,      // continue up the stack (XDP_PASS / TC_ACT_OK)
    kDrop,      // XDP_DROP / TC_ACT_SHOT
    kTx,        // bounce out the ingress interface (XDP_TX)
    kRedirect,  // transmit out redirect_ifindex (XDP_REDIRECT / bpf_redirect)
    kUserspace, // delivered to an AF_XDP socket (consumed by a user app)
    kAborted,   // program error; packet continues to the stack with a warn
  };
  struct RunResult {
    Verdict verdict = Verdict::kPass;
    int redirect_ifindex = 0;
    std::uint64_t cycles = 0;
  };

  virtual ~PacketProgram() = default;
  // Runs the program on `cpu`'s execution state. The kernel's hooks run it
  // on cpu 0; the engine's worker for `cpu` runs it concurrently with the
  // other workers, so implementations shard per-run state per CPU (the eBPF
  // loader keeps one VM per CPU).
  virtual RunResult run(net::Packet& pkt, int ingress_ifindex,
                        unsigned cpu = 0) = 0;
  virtual std::string name() const = 0;

  // Called once, single-threaded, before workers for cpus [0, n) start —
  // the implementation allocates per-CPU execution state here so run()
  // never allocates or locks.
  virtual void prepare_cpus(unsigned n) { (void)n; }
};

enum class DevKind { kPhysical, kVeth, kBridge, kVxlan, kLoopback };

const char* dev_kind_name(DevKind kind);

// Statistics kept per device (subset of rtnl_link_stats64).
struct DevStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;
};

struct VethPeer {
  Kernel* kernel = nullptr;  // peer may live in another netns (Kernel)
  int ifindex = 0;
};

struct VxlanConfig {
  std::uint32_t vni = 0;
  net::Ipv4Addr local;          // underlay source address
  int underlay_ifindex = 0;     // device used to reach remote VTEPs
  // VTEP forwarding database: inner destination MAC -> remote underlay IP
  // (what `bridge fdb append ... dst <ip> dev flannel.1` installs).
  std::map<net::MacAddr, net::Ipv4Addr> vtep_fdb;
};

class NetDevice {
 public:
  NetDevice(int ifindex, std::string name, DevKind kind, net::MacAddr mac)
      : ifindex_(ifindex), name_(std::move(name)), kind_(kind), mac_(mac) {}

  int ifindex() const { return ifindex_; }
  const std::string& name() const { return name_; }
  DevKind kind() const { return kind_; }
  const net::MacAddr& mac() const { return mac_; }
  void set_mac(const net::MacAddr& mac) { mac_ = mac; }

  bool is_up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  std::uint32_t mtu() const { return mtu_; }
  void set_mtu(std::uint32_t mtu) { mtu_ = mtu; }

  // IPv4 addresses assigned to the device ("ip addr add").
  const std::vector<net::IfAddr>& addrs() const { return addrs_; }
  bool add_addr(const net::IfAddr& addr);
  bool del_addr(const net::IfAddr& addr);
  bool has_addr(net::Ipv4Addr addr) const;
  // True when `addr` falls inside one of the device's configured subnets.
  bool on_link(net::Ipv4Addr addr) const;

  // Bridge enslavement: 0 when not a bridge port.
  int master() const { return master_; }
  void set_master(int bridge_ifindex) { master_ = bridge_ifindex; }

  // Type-specific configuration.
  VethPeer& veth() { return veth_; }
  const VethPeer& veth() const { return veth_; }
  VxlanConfig& vxlan() { return vxlan_; }
  const VxlanConfig& vxlan() const { return vxlan_; }

  // Hook attachment (one program per hook, like Linux).
  PacketProgram* xdp_prog() const { return xdp_prog_; }
  PacketProgram* tc_ingress_prog() const { return tc_ingress_prog_; }
  PacketProgram* tc_egress_prog() const { return tc_egress_prog_; }
  void attach_xdp(PacketProgram* prog) { xdp_prog_ = prog; }
  void attach_tc_ingress(PacketProgram* prog) { tc_ingress_prog_ = prog; }
  void attach_tc_egress(PacketProgram* prog) { tc_egress_prog_ = prog; }

  // Physical devices transmit into the simulation through this callback.
  using PhysTxFn = std::function<void(net::Packet&&)>;
  void set_phys_tx(PhysTxFn fn) { phys_tx_ = std::move(fn); }
  const PhysTxFn& phys_tx() const { return phys_tx_; }

  DevStats& stats() { return stats_; }
  const DevStats& stats() const { return stats_; }

 private:
  int ifindex_;
  std::string name_;
  DevKind kind_;
  net::MacAddr mac_;
  bool up_ = false;
  std::uint32_t mtu_ = 1500;
  std::vector<net::IfAddr> addrs_;
  int master_ = 0;
  VethPeer veth_;
  VxlanConfig vxlan_;
  PacketProgram* xdp_prog_ = nullptr;
  PacketProgram* tc_ingress_prog_ = nullptr;
  PacketProgram* tc_egress_prog_ = nullptr;
  PhysTxFn phys_tx_;
  DevStats stats_;
};

}  // namespace linuxfp::kern
