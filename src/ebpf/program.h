// Program representation and the helper-function registry.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/insn.h"
#include "ebpf/maps.h"
#include "net/packet.h"
#include "util/result.h"

namespace linuxfp::kern {
class Kernel;
}

namespace linuxfp::engine {
class FlowCacheRecorder;
}

namespace linuxfp::ebpf {

enum class HookType { kXdp, kTcIngress, kTcEgress };

const char* hook_type_name(HookType type);

// Stable names for well-known helper ids and XDP action codes; used by the
// observability layer for counter names and trace events (string literals,
// so they are safe to keep in cached structures).
const char* helper_name(std::uint32_t id);
const char* action_name(std::uint64_t ret);

// What the verifier proved about one program (verify()'s optional output),
// for Program::decode. access[pc] is the region and the absolute offset
// (base pointer offset + displacement) that the load or store at pc reaches
// on every path; region kNone means unproven (not a memory access, a
// map-value access, or paths that disagree), and then off means nothing.
// stack_floor is the lowest stack byte any load, store or typed helper
// buffer of the program touches.
struct AccessProof {
  Region region = Region::kNone;
  std::int32_t off = 0;
};
struct ProgramProofs {
  std::vector<AccessProof> access;
  std::size_t stack_floor = kStackSize;
};

struct Program {
  std::string name;
  HookType hook = HookType::kXdp;
  std::vector<Insn> insns;

  std::size_t size() const { return insns.size(); }

  // Decoded twin of insns for the interpreter hot loop. The loader builds it
  // eagerly at load time from the verifier's proofs (so concurrent per-CPU
  // VMs only ever read it); the lazy path in code() exists for
  // directly-constructed test programs, which are single-threaded, and
  // decodes without proofs: every access checked, floor 0. Mutating insns
  // after a run requires decoded.clear().
  const std::vector<DecodedInsn>& code() const {
    if (decoded.size() != insns.size()) decode();
    return decoded;
  }
  // Without `proofs`, every load and store keeps its checked handler. With
  // them (from an accepted verify of these insns), each proven access gets a
  // proven handler and the run zeroes the stack only from stack_floor up.
  void decode(const ProgramProofs* proofs = nullptr) const;
  mutable std::vector<DecodedInsn> decoded;
  // Lowest stack byte the decoded stream may touch; valid after code().
  mutable std::size_t stack_floor = 0;
};

// Well-known helper ids (kernel-numbering where one exists).
inline constexpr std::uint32_t kHelperMapLookup = 1;
inline constexpr std::uint32_t kHelperMapUpdate = 2;
inline constexpr std::uint32_t kHelperMapDelete = 3;
inline constexpr std::uint32_t kHelperKtimeGetNs = 5;
inline constexpr std::uint32_t kHelperGetSmpProcessorId = 8;
inline constexpr std::uint32_t kHelperTailCall = 12;
inline constexpr std::uint32_t kHelperCsumDiff = 28;
inline constexpr std::uint32_t kHelperRedirect = 23;
inline constexpr std::uint32_t kHelperRedirectMap = 51;
inline constexpr std::uint32_t kHelperFibLookup = 69;
// Helpers the paper adds to the kernel (§V "Helper Functions"):
inline constexpr std::uint32_t kHelperFdbLookup = 200;
inline constexpr std::uint32_t kHelperIptLookup = 201;
// Extension helper for the ipvs-style load balancer (paper future work):
inline constexpr std::uint32_t kHelperCtLookup = 202;

class Vm;  // fwd

// Execution-time services available to helpers.
class HelperContext {
 public:
  HelperContext(Vm& vm, net::Packet* pkt, kern::Kernel* kernel,
                int ingress_ifindex)
      : vm_(vm), pkt_(pkt), kernel_(kernel), ingress_ifindex_(ingress_ifindex) {}

  net::Packet* packet() { return pkt_; }
  kern::Kernel* kernel() { return kernel_; }
  int ingress_ifindex() const { return ingress_ifindex_; }

  // The CPU the executing VM models: bpf_get_smp_processor_id's return value
  // and the slot per-CPU map helpers address.
  unsigned cpu() const;

  // The host address of `len` bytes at tagged pointer `tagged`, or null
  // when the region or bounds check fails.
  std::uint8_t* mem(std::uint64_t tagged, std::size_t len);

  // Charges extra cycles beyond the per-helper base cost.
  void charge(std::uint64_t cycles);

  // Counts one FIB lookup that walked `depth` trie nodes (0 on a miss) in
  // the executing VM, for fib.lookups / fib.depth_total.
  void note_fib_lookup(std::uint64_t depth);

  // Records an XDP_REDIRECT target.
  void set_redirect(int ifindex);
  // Records an AF_XDP (XSK map) redirect target.
  void set_redirect_xsk(int slot);

  Map* map(std::uint32_t map_id);

  // Wraps raw storage (a map value) into a tagged pointer valid for the rest
  // of this program run.
  std::uint64_t make_map_value_ptr(std::uint8_t* base, std::size_t size);

  // Flow-cache recorder riding along with this run (null when the microflow
  // cache is off). Helpers report their kernel-subsystem dependencies and
  // replayable side effects through it.
  engine::FlowCacheRecorder* recorder();

 private:
  Vm& vm_;
  net::Packet* pkt_;
  kern::Kernel* kernel_;
  int ingress_ifindex_;
};

// r1..r5 in, r0 out.
using HelperFn = std::function<std::uint64_t(
    HelperContext&, std::uint64_t, std::uint64_t, std::uint64_t,
    std::uint64_t, std::uint64_t)>;

struct Helper {
  std::uint32_t id = 0;
  std::string name;
  HelperFn fn;
};

class HelperRegistry {
 public:
  // Helper ids index a fixed table, so the interpreter's per-call find() is
  // one bounds check and one load. Every well-known id is below this.
  static constexpr std::uint32_t kIdLimit = 256;

  void register_helper(std::uint32_t id, std::string name, HelperFn fn);
  const Helper* find(std::uint32_t id) const {
    return id < kIdLimit ? by_id_[id].get() : nullptr;
  }
  bool supports(std::uint32_t id) const { return find(id) != nullptr; }
  // Registered ids, ascending.
  std::vector<std::uint32_t> ids() const;

 private:
  std::array<std::unique_ptr<Helper>, kIdLimit> by_id_;
};

// A set of maps shared by the programs of one attachment (prog array,
// devmap, plus whatever the platform created).
class MapSet {
 public:
  // Returns the new map's id.
  std::uint32_t create(std::string name, MapType type, std::uint32_t key_size,
                       std::uint32_t value_size, std::uint32_t max_entries);
  // Frees a map (close of its last FD). The id is never reused; get() on a
  // destroyed id returns nullptr. Used by the loader to clean up a partially
  // loaded object.
  void destroy(std::uint32_t id);
  Map* get(std::uint32_t id);
  const Map* get(std::uint32_t id) const;
  Map* by_name(const std::string& name);
  // Number of live (not destroyed) maps — the VM's "map table" population.
  std::size_t count() const;

 private:
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace linuxfp::ebpf
