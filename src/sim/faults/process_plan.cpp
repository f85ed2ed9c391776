#include "sim/faults/process_plan.hpp"

#include <csignal>
#include <cstring>
#include <new>
#include <stdexcept>
#include <vector>

#include "util/strings.hpp"

namespace locpriv::sim {

namespace {

ProcessFaultKind parse_kind(const std::string& name) {
  if (name == "crash") return ProcessFaultKind::kCrash;
  if (name == "hang") return ProcessFaultKind::kHang;
  if (name == "alloc") return ProcessFaultKind::kAllocBomb;
  throw std::runtime_error("unknown process fault kind '" + name +
                           "' (expected crash | hang | alloc)");
}

}  // namespace

std::string process_fault_kind_name(ProcessFaultKind kind) {
  switch (kind) {
    case ProcessFaultKind::kCrash: return "crash";
    case ProcessFaultKind::kHang: return "hang";
    case ProcessFaultKind::kAllocBomb: return "alloc";
  }
  return "?";
}

ProcessFaultPlan ProcessFaultPlan::parse(const std::string& spec) {
  ProcessFaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at + 1 == entry.size()) {
      throw std::runtime_error("process fault entry '" + entry +
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
        throw std::runtime_error("process fault entry '" + entry +
                                 "' has a non-numeric attempt count");
      }
      if (attempts < 1) {
        throw std::runtime_error("process fault entry '" + entry +
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
