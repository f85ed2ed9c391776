// The shard worker body. Runs as the body of the harness::ChildProcess that
// LocprivService forks per shard incarnation: a blocking command loop over
// the shard's pipe pair that applies submit batches to per-user fix state,
// answers heartbeat pings, writes snapshots, runs the audit pipeline for
// reports, and returns its exit code on drain or when the parent closes the
// command pipe.
#pragma once

#include "core/analyzer.hpp"
#include "service/locprivd.hpp"

namespace locpriv::service {

struct ShardChildConfig {
  unsigned shard = 0;
  std::string name;     ///< "shard<k>", the fault-plan key.
  int incarnation = 1;  ///< 1-based spawn count, the fault attempt window.
  int cmd_fd = -1;      ///< Read end: commands from the parent.
  int resp_fd = -1;     ///< Write end: responses to the parent.
};

/// Runs the command loop and returns the exit code. Throws Error on a
/// corrupt command stream, an unknown verb, or a closed response pipe.
int shard_child_main(const ShardChildConfig& config,
                     const core::PrivacyAnalyzer& analyzer,
                     const ServiceOptions& options);

}  // namespace locpriv::service
