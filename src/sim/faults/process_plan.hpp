// Process-level fault plans: deterministic worker-process misbehaviour for
// exercising the harness Supervisor. Where FaultSchedule/FaultInjector model
// the *measured substrate* failing (GPS outages, dropped fixes), a
// ProcessFaultPlan models the *measurement worker* failing — the segfault,
// runaway allocation, or non-cooperative busy-hang that takes down a sweep
// cell. A plan maps cell keys to a fault kind plus the number of attempts it
// sabotages, so tests can pin "crashes twice, then succeeds" and the bench
// can demonstrate a run surviving every failure mode via
// `bench_fault_degradation --isolate --fault-cells ...`.
//
// trigger() is meant to run inside a supervised child process: kCrash and
// kHang never return, and kAllocBomb throws std::bad_alloc once the
// allocator (usually capped by the supervisor's RLIMIT_AS) refuses growth.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

namespace locpriv::sim {

enum class ProcessFaultKind {
  kCrash,      ///< Raises SIGSEGV: the classic worker segfault.
  kHang,       ///< Ignores SIGTERM and spins: only SIGKILL can reclaim it.
  kAllocBomb,  ///< Allocates and touches memory until the allocator fails.
};

struct ProcessFault {
  ProcessFaultKind kind = ProcessFaultKind::kCrash;
  /// The fault fires while the 1-based attempt number is <= this; a finite
  /// value models a transient failure that retries can ride out.
  int attempts = std::numeric_limits<int>::max();
};

/// Parses and executes a per-cell process fault plan.
class ProcessFaultPlan {
 public:
  ProcessFaultPlan() = default;

  /// Parses a comma-separated spec: `kind[:attempts]@cell`, with kind one of
  /// crash | hang | alloc, e.g. "crash@i0.25_t10,hang:2@i0.50_t60". A spec
  /// is command-line input, so a malformed one or an unknown kind throws
  /// Error(kUsage).
  static ProcessFaultPlan parse(const std::string& spec);

  /// Throws Error(kUsage), naming `flag`, when a planned cell is not one of
  /// `targets`: a typo would otherwise rehearse nothing and run clean.
  void require_targets(const std::vector<std::string>& targets,
                       const std::string& flag) const;

  void add(std::string cell, ProcessFault fault);

  bool empty() const { return faults_.empty(); }
  const std::map<std::string, ProcessFault>& faults() const { return faults_; }

  /// The fault configured for (cell, attempt), or nullptr when the cell is
  /// clean or the attempt is past the fault's sabotage window.
  const ProcessFault* fault_for(const std::string& cell, int attempt) const;

  /// Executes the configured fault for (cell, attempt): kCrash and kHang do
  /// not return; kAllocBomb throws std::bad_alloc. Returns normally when no
  /// fault applies. `bomb_cap_bytes` bounds the alloc bomb so a plan run
  /// without an address-space rlimit self-terminates instead of eating the
  /// host (the cap raises the same std::bad_alloc the rlimit would).
  void trigger(const std::string& cell, int attempt,
               std::size_t bomb_cap_bytes = std::size_t{1} << 30) const;

 private:
  std::map<std::string, ProcessFault> faults_;
};

}  // namespace locpriv::sim
