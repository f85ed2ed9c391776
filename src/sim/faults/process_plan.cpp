#include "sim/faults/process_plan.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <new>

#include "core/harness/error.hpp"
#include "util/strings.hpp"

namespace locpriv::sim {

namespace {

ProcessFaultKind parse_kind(const std::string& name) {
  if (name == "crash") return ProcessFaultKind::kCrash;
  if (name == "hang") return ProcessFaultKind::kHang;
  if (name == "alloc") return ProcessFaultKind::kAllocBomb;
  throw Error(ErrorCode::kUsage, "unknown process fault kind '" + name +
                                     "' (expected crash | hang | alloc)");
}

}  // namespace

ProcessFaultPlan ProcessFaultPlan::parse(const std::string& spec) {
  ProcessFaultPlan plan;
  for (const std::string_view field : util::split(spec, ',')) {
    if (field.empty()) continue;
    const std::string entry(field);
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at + 1 == entry.size()) {
      throw Error(ErrorCode::kUsage, "process fault entry '" + entry +
                                         "' is not of the form kind[:attempts]@cell");
    }
    std::string head = entry.substr(0, at);
    ProcessFault fault;
    const std::size_t colon = head.find(':');
    if (colon != std::string::npos) {
      const std::string count = head.substr(colon + 1);
      head.resize(colon);
      long long attempts = 0;
      if (!util::parse_int64(count, attempts) ||
          attempts > std::numeric_limits<int>::max()) {
        throw Error(ErrorCode::kUsage, "process fault entry '" + entry +
                                           "' has a non-numeric attempt count");
      }
      if (attempts < 1) {
        throw Error(ErrorCode::kUsage, "process fault entry '" + entry +
                                           "' must sabotage at least one attempt");
      }
      fault.attempts = static_cast<int>(attempts);
    }
    fault.kind = parse_kind(head);
    plan.add(entry.substr(at + 1), fault);
  }
  return plan;
}

void ProcessFaultPlan::add(std::string cell, ProcessFault fault) {
  faults_[std::move(cell)] = fault;
}

void ProcessFaultPlan::require_targets(const std::vector<std::string>& targets,
                                       const std::string& flag) const {
  for (const auto& [cell, fault] : faults_)
    if (std::find(targets.begin(), targets.end(), cell) == targets.end())
      throw Error(ErrorCode::kUsage, flag + " names '" + cell +
                                         "', which this run does not have");
}

const ProcessFault* ProcessFaultPlan::fault_for(const std::string& cell,
                                                int attempt) const {
  const auto it = faults_.find(cell);
  if (it == faults_.end() || attempt > it->second.attempts) return nullptr;
  return &it->second;
}

void ProcessFaultPlan::trigger(const std::string& cell, int attempt,
                               std::size_t bomb_cap_bytes) const {
  const ProcessFault* fault = fault_for(cell, attempt);
  if (fault == nullptr) return;
  switch (fault->kind) {
    case ProcessFaultKind::kCrash:
      // The default disposition first: a sanitizer's SEGV handler would
      // otherwise turn the crash into an ordinary exit 1.
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
      return;  // Unreachable unless SIGSEGV is blocked; fall through safely.
    case ProcessFaultKind::kHang: {
      // A cooperative worker would honour SIGTERM; the point of this fault
      // is to prove the supervisor escalates to SIGKILL, so ignore it.
      std::signal(SIGTERM, SIG_IGN);
      for (;;) {
      }
    }
    case ProcessFaultKind::kAllocBomb: {
      // Grow until the allocator refuses — under the supervisor's RLIMIT_AS
      // that happens quickly; the cap keeps an unsupervised run from
      // exhausting the host before raising the same bad_alloc.
      std::vector<char*> blocks;
      constexpr std::size_t kBlock = std::size_t{16} << 20;
      std::size_t total = 0;
      for (;;) {
        if (total + kBlock > bomb_cap_bytes) {
          for (char* block : blocks) delete[] block;
          throw std::bad_alloc();
        }
        char* block = new char[kBlock];
        // Touch every page so the allocation is backed, not just reserved.
        std::memset(block, 0x5a, kBlock);
        blocks.push_back(block);
        total += kBlock;
      }
    }
  }
}

}  // namespace locpriv::sim
