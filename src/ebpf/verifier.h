// Static verifier for simulated eBPF programs.
//
// Models the safety contract of the kernel verifier that LinuxFP relies on
// ("safety is provided through an in-kernel verifier of bytecode", paper
// §II-A): programs are rejected unless every memory access is provably in
// bounds on every execution path.
//
// Analysis: path-sensitive abstract interpretation over register states.
//  - register typing: uninit / scalar (with constant tracking) / stack ptr /
//    ctx ptr / packet ptr / packet-end ptr / map-value ptr (maybe-null);
//  - packet accesses require a dominating bounds check against data_end
//    (the canonical `if (data + N > data_end) return` pattern);
//  - map-value dereferences require a dominating null check;
//  - stack and ctx accesses are range-checked against their fixed sizes;
//  - only forward jumps are accepted (guaranteed termination; our code
//    generator never emits loops, mirroring pre-5.3 eBPF);
//  - helper calls are checked against the capability set (registered
//    helpers) and per-helper argument contracts; calls clobber r1-r5;
//  - exit requires an initialized r0.
//
// Exploration: depth-first over a LIFO worklist, taken branch pushed and
// fall-through continued. Prune points are every jump target and the
// fall-through of every conditional jump; at each, the states explored
// there are kept in flat per-verify storage, and a path whose state equals
// one of them (field by field: type, offset, map-value size, constant-ness,
// a known constant's value, and the verified packet length) is cut there.
// Nothing else is kept per state.
//
// Proofs (optional output of an accepted program, consumed by
// Program::decode): per load and store, the region and the absolute offset
// it reaches on every path, and the lowest stack byte the program touches.
// DESIGN.md §8 gives the argument that these hold at run time.
#pragma once

#include <cstdint>
#include <string>

#include "ebpf/program.h"
#include "util/result.h"

namespace linuxfp::ebpf {

struct VerifyStats {
  std::size_t paths_explored = 0;
  std::size_t states_visited = 0;
};

struct VerifyOptions {
  const HelperRegistry* helpers = nullptr;  // capability set (required)
  const MapSet* maps = nullptr;             // for map id validation
  std::size_t max_states = 1 << 20;
};

// Returns ok on acceptance; error.code starts with "verifier." on rejection.
// When `proofs` is given, it receives the program's proofs on acceptance and
// is left empty (no access proven) on rejection; recording costs nothing
// when it is null.
util::Status verify(const Program& prog, const VerifyOptions& options,
                    VerifyStats* stats = nullptr,
                    ProgramProofs* proofs = nullptr);

}  // namespace linuxfp::ebpf
