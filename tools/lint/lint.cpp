#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "lint/index.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace locpriv::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule names.
// ---------------------------------------------------------------------------

constexpr std::string_view kRawWrite = "raw-write";
constexpr std::string_view kNondetRng = "nondet-rng";
constexpr std::string_view kUnorderedSerialize = "unordered-serialize";
constexpr std::string_view kSwallowedCatch = "swallowed-catch";
constexpr std::string_view kExitCall = "exit-call";
constexpr std::string_view kRawProcess = "raw-process";
constexpr std::string_view kUnboundedGrowth = "unbounded-growth";
constexpr std::string_view kUncheckedIo = "unchecked-io";
constexpr std::string_view kBadSuppression = "bad-suppression";
constexpr std::string_view kEintrRetry = "eintr-retry";
constexpr std::string_view kFdGuard = "fd-guard";
constexpr std::string_view kSignalSafety = "signal-safety";
constexpr std::string_view kBlockingUnderLock = "blocking-under-lock";
constexpr std::string_view kSeqNarrowing = "seq-narrowing";
constexpr std::string_view kVerbExhaustive = "verb-exhaustive";
constexpr std::string_view kLinearSpatialScan = "linear-spatial-scan";

bool is_harness_path(std::string_view path) {
  return std::string(path).find("src/core/harness/") != std::string::npos;
}

bool is_service_path(std::string_view path) {
  return std::string(path).find("src/service/") != std::string::npos;
}

bool path_ends_with(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         (path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/');
}

std::string_view trim(std::string_view text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

struct Suppressions {
  // line (1-based) -> rules allowed on that line and the following one.
  std::map<std::size_t, std::vector<std::string>> allowed;
  std::vector<Finding> errors;  // bad-suppression findings.

  bool covers(std::size_t line, std::string_view rule) const {
    for (const std::size_t at : {line, line - 1}) {
      const auto it = allowed.find(at);
      if (it == allowed.end()) continue;
      for (const std::string& name : it->second)
        if (name == rule) return true;
    }
    return false;
  }
};

// Parses the suppression comments out of the lexer's comment view: the
// `locpriv-lint:` marker, then `allow(` and a comma-separated rule list up to
// `)`, all on one physical line.
Suppressions collect_suppressions(const std::string& path, std::string_view comments) {
  static constexpr std::string_view kMarker = "locpriv-lint:";
  static constexpr std::string_view kAllow = "allow(";
  Suppressions result;
  std::size_t line = 1;
  std::size_t counted = 0;  // newlines before `counted` are already in `line`
  for (std::size_t at = comments.find(kMarker); at != std::string_view::npos;
       at = comments.find(kMarker, at + 1)) {
    line += static_cast<std::size_t>(
        std::count(comments.begin() + counted, comments.begin() + at, '\n'));
    counted = at;
    const std::size_t allow = comments.find_first_not_of(" \t\r\f\v", at + kMarker.size());
    if (allow == std::string_view::npos || comments.compare(allow, kAllow.size(), kAllow) != 0)
      continue;
    const std::size_t open = allow + kAllow.size();
    const std::size_t close = comments.find_first_of(")\n", open);
    if (close == std::string_view::npos || comments[close] != ')') continue;
    bool any = false;
    std::string_view names = comments.substr(open, close - open);
    while (!names.empty()) {
      const std::size_t comma = std::min(names.find(','), names.size());
      const std::string name(trim(names.substr(0, comma)));
      names.remove_prefix(std::min(comma + 1, names.size()));
      if (name.empty()) continue;
      any = true;
      if (is_known_rule(name)) {
        result.allowed[line].push_back(name);
      } else {
        result.errors.push_back({path, line, std::string(kBadSuppression),
                                 "unknown rule '" + name + "' in locpriv-lint suppression"});
      }
    }
    if (!any)
      result.errors.push_back(
          {path, line, std::string(kBadSuppression), "empty locpriv-lint suppression"});
    at = close;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-file analysis: semantic index + suppressions + per-file findings.
// ---------------------------------------------------------------------------

struct FileAnalysis {
  FileIndex index;
  Suppressions suppressions;
  std::vector<Finding> findings;  // per-file findings, suppression-filtered
};

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool in_set(std::string_view name, std::initializer_list<std::string_view> set) {
  for (const std::string_view entry : set)
    if (name == entry) return true;
  return false;
}

// Tokens between two indices (inclusive lparen-exclusive style handled by
// callers) containing an identifier `name`.
bool range_has_ident(const FileIndex& file, std::size_t lo, std::size_t hi,
                     std::string_view name) {
  for (std::size_t i = lo; i < hi && i < file.src.tokens.size(); ++i)
    if (is_ident(file.src.tokens[i], name)) return true;
  return false;
}

bool is_member_access(const Token& t) {
  return is_punct(t, ".") || is_punct(t, "->");
}

bool is_one_of(const Token& t, std::initializer_list<std::string_view> names) {
  return is_ident(t) && in_set(t.text, names);
}

// The token at `i` is one of `names` and a '(' follows it.
bool names_call(const std::vector<Token>& tokens, std::size_t i,
                std::initializer_list<std::string_view> names) {
  return is_one_of(tokens[i], names) && i + 1 < tokens.size() && is_punct(tokens[i + 1], "(");
}

// `scope::` directly precedes the token at `i` (`std::ofstream`).
bool qualified_by(const std::vector<Token>& tokens, std::size_t i, std::string_view scope) {
  return i >= 2 && is_punct(tokens[i - 1], "::") && is_ident(tokens[i - 2], scope);
}

// The line rules report at most one finding per (line, rule).
void flag_line(FileAnalysis& analysis, std::size_t line, std::string_view rule,
               std::string message) {
  for (const Finding& finding : analysis.findings)
    if (finding.line == line && finding.rule == rule) return;
  analysis.findings.push_back(
      {analysis.index.path, line, std::string(rule), std::move(message)});
}

// ---- raw-write ------------------------------------------------------------

void rule_raw_write(FileAnalysis& analysis) {
  if (is_harness_path(analysis.index.path)) return;
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  // std::rename, std::filesystem::rename, fs::rename.
  const auto library_rename = [&](std::size_t i) {
    return names_call(tokens, i, {"rename"}) &&
           (qualified_by(tokens, i, "std") || qualified_by(tokens, i, "fs") ||
            (qualified_by(tokens, i, "filesystem") && qualified_by(tokens, i - 2, "std")));
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if ((is_ident(tokens[i], "ofstream") && qualified_by(tokens, i, "std")) ||
        names_call(tokens, i, {"fopen", "freopen"}) || library_rename(i))
      flag_line(analysis, tokens[i].line, kRawWrite,
                "raw file write bypasses the harness atomic writer; use "
                "AtomicFileWriter/write_file_atomic so a crash cannot publish a torn "
                "artifact");
  }
}

// ---- nondet-rng -----------------------------------------------------------

void rule_nondet_rng(FileAnalysis& analysis) {
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  // `time(nullptr)`, `time(NULL)`, `time(0)`: the argument and the ')'.
  const auto clock_seed = [&](std::size_t i) {
    if (!names_call(tokens, i, {"time"}) || i + 3 >= tokens.size()) return false;
    const Token& arg = tokens[i + 2];
    return (is_ident(arg, "nullptr") || is_ident(arg, "NULL") ||
            (arg.kind == TokenKind::kNumber && arg.text == "0")) &&
           is_punct(tokens[i + 3], ")");
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if ((is_ident(tokens[i], "rand") && qualified_by(tokens, i, "std")) ||
        (names_call(tokens, i, {"rand"}) && i + 2 < tokens.size() &&
         is_punct(tokens[i + 2], ")")) ||
        names_call(tokens, i, {"srand"}) || is_ident(tokens[i], "random_device") ||
        clock_seed(i))
      flag_line(analysis, tokens[i].line, kNondetRng,
                "nondeterministic randomness/time source; derive all randomness from "
                "a seeded stats::Rng so resumed runs stay byte-identical");
  }
}

// ---- unordered-serialize --------------------------------------------------

// Names that mean "this file produces serialized artifacts": the util
// writers, the bench export helpers, and the harness publish entry points.
bool serializes(const std::vector<Token>& tokens) {
  return std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
    return is_one_of(t, {"JsonWriter", "CsvWriter", "SeriesCsv", "export_table",
                         "write_file_atomic", "AtomicFileWriter", "write_plt", "csv_escape",
                         "json_escape"});
  });
}

void rule_unordered_serialize(FileAnalysis& analysis) {
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  if (!serializes(tokens)) return;
  for (std::size_t i = 0; i < tokens.size(); ++i)
    if (is_one_of(tokens[i], {"unordered_map", "unordered_set", "unordered_multimap",
                              "unordered_multiset"}) &&
        qualified_by(tokens, i, "std"))
      flag_line(analysis, tokens[i].line, kUnorderedSerialize,
                "unordered container in a file that serializes output; use std::map "
                "or a sorted vector (or suppress after proving contents never reach "
                "an artifact)");
}

// ---- exit-call ------------------------------------------------------------

// `int main (` anywhere in the file: an entry point may map errors to exit
// codes itself.
bool defines_main(const std::vector<Token>& tokens) {
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i)
    if (is_ident(tokens[i], "int") && is_ident(tokens[i + 1], "main") &&
        is_punct(tokens[i + 2], "("))
      return true;
  return false;
}

void rule_exit_call(FileAnalysis& analysis) {
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  if (defines_main(tokens)) return;
  for (std::size_t i = 0; i < tokens.size(); ++i)
    // A member function that shares the spelling (`app.exit()`) is not libc.
    if (names_call(tokens, i, {"exit", "quick_exit", "_Exit"}) &&
        call_qual(tokens, i) != CallQual::kMember)
      flag_line(analysis, tokens[i].line, kExitCall,
                "exit() outside a main() file skips destructors and the "
                "locpriv::Error exit-code taxonomy; throw instead");
}

// ---- raw-process ----------------------------------------------------------

// Raw process-lifecycle primitives. The supervisor owns fork/kill/waitpid
// (child cleanup, rlimits, SIGTERM escalation, quarantine bookkeeping);
// scattered direct calls would leak children past graceful shutdown. Member
// and class-qualified names that merely share a POSIX spelling
// (`rng.fork()`, `Rng::fork(`) pass; `::fork(` is still the syscall.
void rule_raw_process(FileAnalysis& analysis) {
  if (is_harness_path(analysis.index.path)) return;
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!names_call(tokens, i, {"fork", "vfork", "execl", "execle", "execlp", "execv",
                                "execve", "execvp", "fexecve", "posix_spawn",
                                "posix_spawnp", "waitpid", "kill"}))
      continue;
    const CallQual qual = call_qual(tokens, i);
    if (qual == CallQual::kMember || qual == CallQual::kType) continue;
    flag_line(analysis, tokens[i].line, kRawProcess,
              "raw " + tokens[i].text +
                  "() outside src/core/harness/; run children through "
                  "harness::ChildProcess so rlimits, reaping, and graceful "
                  "shutdown stay centralized");
  }
}

// ---- unbounded-growth -----------------------------------------------------

// The unbounded-growth rule only patrols the always-on daemon and the
// long-running sweep supervisor — the places where a slowly growing
// container is a production memory leak rather than a transient buffer.
bool is_longlived_state_path(std::string_view path) {
  return is_service_path(path) || is_harness_path(path);
}

// The receiver of the member call named at `name`: the identifier, `.` and
// `->` tokens before it, spelled out ("shard.retained."). It is long-lived
// state when it is a chain (`shard.retained`) or any component carries the
// trailing-underscore member convention (`stats_`); plain locals
// (`fields.push_back`) pass — the rule targets containers that outlive one
// call, where growth without a cap is a slow memory leak.
std::string long_lived_receiver(const std::vector<Token>& tokens, std::size_t name) {
  std::string chain;
  std::size_t components = 0;
  bool member_named = false;
  for (std::size_t sep = name - 1; sep >= 1 && is_ident(tokens[sep - 1]); sep -= 2) {
    const std::string& part = tokens[sep - 1].text;
    chain.insert(0, part + tokens[sep].text);
    ++components;
    member_named = member_named || part.back() == '_';
    if (sep < 2 || !is_member_access(tokens[sep - 2])) break;
  }
  return components >= 2 || member_named ? chain : std::string();
}

void rule_unbounded_growth(FileAnalysis& analysis) {
  if (!is_longlived_state_path(analysis.index.path)) return;
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  // Evidence nearby code bounds the container: any explicit trim/reset call.
  std::vector<std::size_t> trim_lines;
  for (std::size_t i = 0; i < tokens.size(); ++i)
    if (names_call(tokens, i,
                   {"pop_front", "pop_back", "erase", "resize", "clear", "shrink_to_fit"}))
      trim_lines.push_back(tokens[i].line);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!names_call(tokens, i, {"push_back", "emplace_back", "push_front", "emplace_front"}) ||
        call_qual(tokens, i) != CallQual::kMember)
      continue;
    const std::string receiver = long_lived_receiver(tokens, i);
    if (receiver.empty()) continue;
    // A trim/reset within eight lines either way is taken as the matching
    // bound (the pop to this push). Anything subtler needs an explicit
    // locpriv-lint: allow(unbounded-growth) with a reason.
    const std::size_t line = tokens[i].line;
    const auto trim = std::lower_bound(trim_lines.begin(), trim_lines.end(),
                                       line > 8 ? line - 8 : 0);
    if (trim != trim_lines.end() && *trim <= line + 8) continue;
    flag_line(analysis, line, kUnboundedGrowth,
              "growth of long-lived container '" + receiver + tokens[i].text +
                  "' with no cap or trim within 8 lines; bound it (window, "
                  "watermark, rolling cap) or suppress with a justification");
  }
}

// ---- swallowed-catch ------------------------------------------------------

// A catch-all handler is fine when it forwards the exception somewhere:
// rethrow, capture via current_exception, or a deliberate hard stop. The
// handler is the balanced { } after `catch ( ... )`; with no block at all
// (macro trickery) the conservative answer is "does not forward".
void rule_swallowed_catch(FileAnalysis& analysis) {
  const std::vector<Token>& tokens = analysis.index.src.tokens;
  for (std::size_t i = 0; i + 5 < tokens.size(); ++i) {
    if (!is_ident(tokens[i], "catch") || !is_punct(tokens[i + 1], "(") ||
        !is_punct(tokens[i + 2], ".") || !is_punct(tokens[i + 3], ".") ||
        !is_punct(tokens[i + 4], ".") || !is_punct(tokens[i + 5], ")"))
      continue;
    std::size_t at = i + 6;
    while (at < tokens.size() && !is_punct(tokens[at], "{")) ++at;
    bool forwards = false;
    for (int depth = 0; at < tokens.size() && !forwards; ++at) {
      const Token& t = tokens[at];
      if (is_punct(t, "{")) ++depth;
      if (is_punct(t, "}") && --depth == 0) break;
      forwards = is_ident(t, "throw") || is_ident(t, "current_exception") ||
                 is_ident(t, "rethrow_exception") || names_call(tokens, at, {"abort"});
    }
    if (!forwards)
      flag_line(analysis, tokens[i].line, kSwallowedCatch,
                "catch (...) swallows the exception (handler neither rethrows, stores "
                "current_exception, nor aborts)");
  }
}

// ---- eintr-retry ----------------------------------------------------------

void rule_eintr_retry(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  for (const CallSite& call : file.calls) {
    if (call.qual != CallQual::kNone && call.qual != CallQual::kGlobal) continue;
    if (!in_set(call.name, {"poll", "read", "write", "waitpid"})) continue;
    // Non-blocking invocations never see EINTR-worth-retrying semantics the
    // rule targets: waitpid(..., WNOHANG) polls and returns.
    if (range_has_ident(file, call.lparen + 1, call.rparen, "WNOHANG")) continue;
    const bool retried = file.enclosing_loop_contains(
        call.name_token,
        [](const Token& t) { return is_ident(t, "EINTR"); });
    if (retried) continue;
    analysis.findings.push_back(
        {file.path, call.line, std::string(kEintrRetry),
         "raw ::" + call.name +
             "() result is not re-checked in an errno == EINTR retry loop; a "
             "stray signal would surface as a spurious failure (wrap the call "
             "like write_all/read_available do)"});
  }
}

// ---- fd-guard -------------------------------------------------------------

void rule_fd_guard(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  const std::vector<Token>& tokens = file.src.tokens;
  for (const FunctionDef& fn : file.functions) {
    const std::vector<const CallSite*> calls = file.calls_in(fn);
    for (const CallSite* creator : calls) {
      if (creator->qual != CallQual::kNone && creator->qual != CallQual::kGlobal)
        continue;
      const bool scalar = in_set(creator->name, {"open", "openat", "creat", "dup",
                                                "socket", "eventfd", "memfd_create"});
      const bool array = in_set(creator->name, {"pipe", "pipe2", "socketpair"});
      if (!scalar && !array) continue;

      // Identify the local fd variable the descriptor lands in.
      std::string var;
      if (array) {
        const auto args = split_arguments(file, *creator);
        if (args.empty()) continue;
        for (std::size_t i = args[0].first; i < args[0].second; ++i)
          if (is_ident(tokens[i])) {
            var = tokens[i].text;
            break;
          }
        if (var.empty()) continue;
        // Member arrays are owned by the object, not this scope.
        if (ends_with(var, "_")) continue;
        if (args[0].first > 0 && (tokens[args[0].first].kind == TokenKind::kPunct))
          continue;
      } else {
        // Pattern: `var = [::]creator(` — anything else (returned directly,
        // passed straight to a guard/owner) is not a bare local binding.
        std::size_t at = creator->name_token;
        if (creator->qual == CallQual::kGlobal && at >= 1) --at;  // skip '::'
        if (at < 2) continue;
        if (!is_punct(tokens[at - 1], "=") || !is_ident(tokens[at - 2])) continue;
        var = tokens[at - 2].text;
        if (ends_with(var, "_")) continue;  // member store: object owns it
        if (at >= 3 && is_member_access(tokens[at - 3]))
          continue;  // field store: owner is elsewhere
      }

      const auto is_borrower = [](std::string_view name) {
        return in_set(name, {"read", "write", "pread", "pwrite", "fsync",
                             "fdatasync", "fcntl", "lseek", "ftruncate",
                             "isatty", "ioctl", "poll", "flock",
                             "set_nonblocking"});
      };
      const auto is_closer = [](std::string_view name) {
        return name == "closedir" || name.rfind("close", 0) == 0;
      };
      // True when token `j` sits inside the argument list of a call that
      // only borrows (or closes) the descriptor — such an occurrence is not
      // an ownership transfer even inside a return statement.
      const auto borrowed_at = [&](std::size_t j) {
        for (const CallSite* c : calls)
          if (c->lparen < j && j < c->rparen &&
              (is_borrower(c->name) || is_closer(c->name)))
            return true;
        return false;
      };
      bool closed = false;
      bool escaped = false;
      for (const CallSite* other : calls) {
        if (other == creator) continue;
        if (!range_has_ident(file, other->lparen + 1, other->rparen, var)) continue;
        if (is_closer(other->name)) {
          closed = true;
        } else if (!is_borrower(other->name)) {
          // Handed to something that is not a pure borrower: an RAII guard,
          // a struct field setter, dup2, a helper that takes ownership.
          escaped = true;
        }
      }
      for (std::size_t i = fn.body_open; i <= fn.body_close && !escaped; ++i) {
        const Token& t = tokens[i];
        if (is_ident(t, "return")) {
          // `return ... var ...;` — the caller owns it now (unless the
          // mention is only an argument of a borrowing call).
          for (std::size_t j = i + 1; j <= fn.body_close; ++j) {
            if (is_punct(tokens[j], ";")) break;
            if (is_ident(tokens[j], var) && !borrowed_at(j)) {
              escaped = true;
              break;
            }
          }
        } else if (is_ident(t, var) && i > fn.body_open && is_punct(tokens[i - 1], "=")) {
          escaped = true;  // stored into another name (member, array, alias)
        }
      }
      if (closed || escaped) continue;
      analysis.findings.push_back(
          {file.path, creator->line, std::string(kFdGuard),
           "fd from ::" + creator->name + "() bound to '" + var +
               "' is neither closed in this function nor handed to an owner; "
               "wrap it in harness::FdGuard (or close it on every exit path)"});
    }
  }
}

// ---- blocking-under-lock --------------------------------------------------

void rule_blocking_under_lock(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  const std::vector<Token>& tokens = file.src.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!is_ident(tokens[i], "MutexLock")) continue;
    if (i > 0 && is_member_access(tokens[i - 1])) continue;
    // Declaration shape: `MutexLock name(...)` / `MutexLock name{...}`.
    if (!is_ident(tokens[i + 1]) ||
        !(is_punct(tokens[i + 2], "(") || is_punct(tokens[i + 2], "{")))
      continue;
    const std::string& lock_name = tokens[i + 1].text;
    const std::size_t scope = file.innermost_scope(i);
    const std::size_t live_end =
        scope == kNpos ? tokens.size() - 1 : file.scopes[scope].close;
    for (const CallSite& call : file.calls) {
      if (call.name_token <= i || call.name_token > live_end) continue;
      if (call.qual == CallQual::kMember) continue;
      if (!in_set(call.name,
                  {"poll", "ppoll", "select", "read", "write", "pread", "pwrite",
                   "readv", "writev", "waitpid", "fsync", "fdatasync", "open",
                   "openat", "usleep", "nanosleep", "sleep", "sleep_for",
                   "sleep_until", "accept", "connect", "recv", "recvfrom", "send",
                   "sendto", "system", "popen", "flock"}))
        continue;
      analysis.findings.push_back(
          {file.path, call.line, std::string(kBlockingUnderLock),
           "blocking " + call.name + "() while MutexLock '" + lock_name +
               "' (declared line " + std::to_string(tokens[i].line) +
               ") is live; every waiter on that mutex stalls behind the "
               "syscall — drop the lock first"});
    }
  }
}

// ---- seq-narrowing --------------------------------------------------------

bool is_narrow_type(std::string_view name) {
  return in_set(name, {"int", "unsigned", "short", "uint32_t", "int32_t",
                       "uint16_t", "int16_t", "uint8_t", "int8_t"});
}

bool is_counter_name(std::string_view name) {
  return ends_with(name, "_seq") || ends_with(name, "_bytes");
}

void rule_seq_narrowing(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  if (!is_service_path(file.path)) return;
  const std::vector<Token>& tokens = file.src.tokens;
  auto add = [&](std::size_t line, const std::string& what) {
    analysis.findings.push_back(
        {file.path, line, std::string(kSeqNarrowing),
         what + "; wire seq/byte counters are 64-bit end to end — a 32-bit "
                "view silently wraps after 4Gi events"});
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    // a) narrow declaration: `uint32_t submit_seq`.
    if (is_ident(t) && is_counter_name(t.text) && i > 0 && is_ident(tokens[i - 1]) &&
        is_narrow_type(tokens[i - 1].text)) {
      add(t.line, "counter '" + t.text + "' declared with 32-bit type '" +
                      tokens[i - 1].text + "'");
      continue;
    }
    // b) `static_cast<narrow>(...counter...)`.
    if (is_ident(t, "static_cast") && i + 1 < tokens.size() && is_punct(tokens[i + 1], "<")) {
      std::size_t j = i + 2;
      int depth = 1;
      bool narrow = false;
      while (j < tokens.size() && depth > 0) {
        const Token& u = tokens[j];
        if (is_punct(u, "<")) ++depth;
        if (is_punct(u, ">") || is_punct(u, ">>")) {
          depth -= u.text == ">>" ? 2 : 1;
          if (depth <= 0) break;
        }
        if (is_ident(u) && is_narrow_type(u.text)) narrow = true;
        ++j;
      }
      if (!narrow || j + 1 >= tokens.size() || !is_punct(tokens[j + 1], "(")) continue;
      int paren = 1;
      for (std::size_t k = j + 2; k < tokens.size() && paren > 0; ++k) {
        const Token& u = tokens[k];
        if (is_punct(u, "(")) ++paren;
        if (is_punct(u, ")")) --paren;
        if (is_ident(u) && is_counter_name(u.text)) {
          add(t.line, "static_cast to a 32-bit type applied to counter '" +
                          u.text + "'");
          break;
        }
      }
      continue;
    }
    // c) C cast: `(uint32_t)counter` / `(std::uint32_t)counter`.
    if (is_punct(t, "(")) {
      std::size_t j = i + 1;
      if (j < tokens.size() && is_ident(tokens[j], "std")) j += 2;
      if (j + 2 < tokens.size() && is_ident(tokens[j]) && is_narrow_type(tokens[j].text) &&
          is_punct(tokens[j + 1], ")") && is_ident(tokens[j + 2]) &&
          is_counter_name(tokens[j + 2].text)) {
        add(t.line, "C-style cast to 32-bit type applied to counter '" +
                        tokens[j + 2].text + "'");
      }
    }
  }
}

// ---- linear-spatial-scan --------------------------------------------------

// The spatial hot paths, where a distance loop over a PoI/fix container runs
// once per query and so must be shown to stay small.
bool is_spatial_hot_path(std::string_view path) {
  const std::string p(path);
  return p.find("src/poi/") != std::string::npos ||
         p.find("src/privacy/") != std::string::npos;
}

bool is_distance_call(std::string_view name) {
  return in_set(name, {"haversine_m", "equirectangular_m"});
}

void rule_linear_spatial_scan(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  if (!is_spatial_hot_path(file.path)) return;
  for (const CallSite& call : file.calls) {
    if (!is_distance_call(call.name)) continue;
    if (!file.inside_loop(call.name_token)) continue;
    analysis.findings.push_back(
        {file.path, call.line, std::string(kLinearSpatialScan),
         "distance call " + call.name +
             "() inside a loop in a spatial hot path; a per-query scan must "
             "stay small, so suppress with a justification that bounds the "
             "loop (window, one user's PoIs, one pair per fix)"});
  }
}

// ---- unchecked-io ---------------------------------------------------------

// Durability calls whose failure loses data when nobody looks: a write that
// came up short, an fsync the kernel refused, a rename that never published.
// close/unlink are deliberately out of scope — their failure modes are
// cleanup noise, and flagging them would bury the signal.
bool is_durability_call(std::string_view name) {
  return in_set(name, {"write", "pwrite", "fsync", "fdatasync", "rename",
                       "ftruncate"});
}

// Flags durability-relevant IO whose result is discarded — the call is a
// whole expression statement — under the storage-owning directories. Covers
// the raw spellings (`fsync(fd);`, `::write(...)`) and the injectable
// harness::FileOps layer (`ops.fsync(fd);`); member calls through other
// receivers (std::ostream::write) conventionally discard their return.
// `(void)` casts and justified suppressions are the two visible escapes.
void rule_unchecked_io(FileAnalysis& analysis) {
  const FileIndex& file = analysis.index;
  if (!is_harness_path(file.path) && !is_service_path(file.path)) return;
  const std::vector<Token>& tokens = file.src.tokens;
  for (const CallSite& call : file.calls) {
    if (!is_durability_call(call.name)) continue;
    std::size_t start = call.name_token;  // first token of the call expression
    if (call.qual == CallQual::kGlobal) {
      start = call.name_token - 1;  // the `::`
    } else if (call.qual == CallQual::kMember) {
      if (call.name_token < 2) continue;
      const Token& receiver = tokens[call.name_token - 2];
      if (!is_ident(receiver) || receiver.text.find("ops") == std::string::npos) continue;
      start = call.name_token - 2;
    } else if (call.qual == CallQual::kType) {
      continue;  // std::rename / fs::rename — the raw-write rule owns those.
    }
    if (start == 0 || call.rparen + 1 >= tokens.size()) continue;
    if (!is_punct(tokens[call.rparen + 1], ";")) continue;
    const Token& before = tokens[start - 1];
    const bool boundary = is_punct(before, ";") || is_punct(before, "{") ||
                          is_punct(before, "}") || is_punct(before, ")") ||
                          is_ident(before, "else") || is_ident(before, "do");
    if (!boundary) continue;
    // `(void)ops.fsync(fd);` is an explicit, visible discard.
    if (is_punct(before, ")") && start >= 3 && is_ident(tokens[start - 2], "void") &&
        is_punct(tokens[start - 3], "("))
      continue;
    analysis.findings.push_back(
        {file.path, call.line, std::string(kUncheckedIo),
         "result of " + call.name +
             "() is discarded in durability-critical code; a storage fault "
             "here becomes silent data loss — check it, or suppress with a "
             "reason when failure genuinely cannot matter (cleanup on an "
             "already-failing path)"});
  }
}

// ---------------------------------------------------------------------------
// analyze_source: lex + index + suppressions + every per-file rule.
// ---------------------------------------------------------------------------

FileAnalysis analyze_source(std::string_view path, std::string_view content) {
  FileAnalysis analysis;
  analysis.index = build_index(std::string(path), content);
  analysis.suppressions =
      collect_suppressions(analysis.index.path, analysis.index.src.comments);
  for (const auto rule :
       {rule_raw_write, rule_nondet_rng, rule_unordered_serialize, rule_swallowed_catch,
        rule_exit_call, rule_raw_process, rule_unbounded_growth, rule_eintr_retry,
        rule_fd_guard, rule_blocking_under_lock, rule_seq_narrowing,
        rule_linear_spatial_scan, rule_unchecked_io})
    rule(analysis);
  std::vector<Finding> findings = std::move(analysis.suppressions.errors);
  analysis.suppressions.errors.clear();
  for (Finding& finding : analysis.findings) {
    if (analysis.suppressions.covers(finding.line, finding.rule)) continue;
    findings.push_back(std::move(finding));
  }
  analysis.findings = std::move(findings);
  return analysis;
}

// ---------------------------------------------------------------------------
// Cross-file rules over the whole collection of analyses.
// ---------------------------------------------------------------------------

// ---- signal-safety --------------------------------------------------------

bool is_signal_constant(std::string_view name) {
  return name == "SIG_DFL" || name == "SIG_IGN" || name == "SIG_ERR";
}

// Extracts the simple names of functions registered as signal handlers in
// `file`: `x.sa_handler = [&]name` assignments and `signal(SIG, name)` call
// arguments (sigaction(2) registrations flow through sa_handler).
std::vector<std::string> handler_names(const FileIndex& file) {
  std::vector<std::string> names;
  const std::vector<Token>& tokens = file.src.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!is_one_of(tokens[i], {"sa_handler", "sa_sigaction"}) || !is_punct(tokens[i + 1], "="))
      continue;
    std::size_t j = i + 2;
    if (is_punct(tokens[j], "&")) ++j;
    // Take the last identifier of a possibly qualified chain.
    std::string last;
    while (j < tokens.size()) {
      if (is_ident(tokens[j])) {
        last = tokens[j].text;
        ++j;
        if (j < tokens.size() && is_punct(tokens[j], "::")) {
          ++j;
          continue;
        }
      }
      break;
    }
    if (!last.empty() && !is_signal_constant(last)) names.push_back(last);
  }
  for (const CallSite& call : file.calls) {
    if (call.qual == CallQual::kMember) continue;
    if (call.name != "signal") continue;
    const auto args = split_arguments(file, call);
    if (args.size() < 2) continue;
    std::string last;
    for (std::size_t i = args[1].first; i < args[1].second; ++i)
      if (is_ident(tokens[i])) last = tokens[i].text;
    if (!last.empty() && !is_signal_constant(last)) names.push_back(last);
  }
  return names;
}

// Facilities that are not async-signal-safe: allocation, stdio/logging,
// iostreams, formatting that allocates, and locks.
bool is_signal_unsafe_token(const Token& t) {
  return is_one_of(t, {"LOCPRIV_LOG", "malloc", "calloc", "realloc", "free", "printf",
                       "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "puts",
                       "fputs", "fflush", "cout", "cerr", "clog", "endl", "ostringstream",
                       "stringstream", "ofstream", "ifstream", "to_string", "MutexLock",
                       "lock_guard", "unique_lock", "scoped_lock", "new", "delete",
                       "throw"});
}

void rule_signal_safety(const std::vector<FileAnalysis>& files,
                        std::vector<Finding>& out) {
  // Name -> definitions across the tree.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> defs;
  for (std::size_t f = 0; f < files.size(); ++f)
    for (std::size_t g = 0; g < files[f].index.functions.size(); ++g)
      defs[files[f].index.functions[g].name].emplace_back(f, g);

  std::set<std::pair<std::size_t, std::size_t>> visited;
  std::vector<std::tuple<std::size_t, std::size_t, std::string>> queue;
  for (const FileAnalysis& file : files)
    for (const std::string& handler : handler_names(file.index)) {
      const auto it = defs.find(handler);
      if (it == defs.end()) continue;
      for (const auto& def : it->second)
        if (visited.insert(def).second)
          queue.emplace_back(def.first, def.second, handler);
    }

  for (std::size_t q = 0; q < queue.size() && q < 4096; ++q) {
    const auto [f, g, root] = queue[q];
    const FileAnalysis& analysis = files[f];
    const FunctionDef& fn = analysis.index.functions[g];
    // Scan the body for signal-unsafe facilities.
    for (std::size_t i = fn.body_open; i <= fn.body_close; ++i) {
      const Token& t = analysis.index.src.tokens[i];
      if (!is_signal_unsafe_token(t)) continue;
      if (!analysis.suppressions.covers(t.line, kSignalSafety))
        out.push_back({analysis.index.path, t.line, std::string(kSignalSafety),
                       "'" + fn.name + "' is reachable from signal handler '" +
                           root + "' but uses '" + t.text +
                           "', which is not async-signal-safe; handlers may "
                           "only touch lock-free atomics and raw fds"});
      break;  // One finding per reachable function keeps the report readable.
    }
    // Follow non-member calls to tree-defined functions.
    for (const CallSite* call : analysis.index.calls_in(fn)) {
      if (call->qual == CallQual::kMember) continue;
      const auto it = defs.find(call->name);
      if (it == defs.end()) continue;
      for (const auto& def : it->second)
        if (visited.insert(def).second)
          queue.emplace_back(def.first, def.second, root);
    }
  }
}

// ---- verb-exhaustive ------------------------------------------------------

const FileAnalysis* find_by_suffix(const std::vector<FileAnalysis>& files,
                                   std::string_view suffix) {
  for (const FileAnalysis& file : files)
    if (path_ends_with(file.index.path, suffix)) return &file;
  return nullptr;
}

bool file_has_ident(const FileIndex& file, std::string_view name) {
  for (const Token& t : file.src.tokens)
    if (is_ident(t, name)) return true;
  return false;
}

void add_unless_suppressed(const FileAnalysis& file, std::size_t line,
                           std::string_view rule, std::string message,
                           std::vector<Finding>& out) {
  if (file.suppressions.covers(line, rule)) return;
  out.push_back({file.index.path, line, std::string(rule), std::move(message)});
}

// Adds the record kinds a replay parser matches: every `{\"kind\":` in a
// string literal's source text.
void collect_parsed_kinds(std::string_view text, std::set<std::string>& kinds) {
  static constexpr std::string_view kOpen = "{\\\"";
  static constexpr std::string_view kClose = "\\\":";
  for (std::size_t at = text.find(kOpen); at != std::string_view::npos;
       at = text.find(kOpen, at + 1)) {
    const std::size_t begin = at + kOpen.size();
    std::size_t end = begin;
    while (end < text.size() && (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
                                 text[end] == '_'))
      ++end;
    if (end > begin && text.compare(end, kClose.size(), kClose) == 0)
      kinds.emplace(text.substr(begin, end - begin));
  }
}

// The exit code a README table row `| 3 | ...` documents, or -1 when the
// line is not such a row.
long table_row_code(std::string_view line) {
  static constexpr std::string_view kSpace = " \t\r\f\v";
  const std::size_t bar = line.find_first_not_of(kSpace);
  if (bar == std::string_view::npos || line[bar] != '|') return -1;
  const std::size_t digits = line.find_first_not_of(kSpace, bar + 1);
  if (digits == std::string_view::npos) return -1;
  std::size_t end = digits;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  const std::size_t next = line.find_first_not_of(kSpace, end);
  if (end == digits || next == std::string_view::npos || line[next] != '|') return -1;
  return std::stol(std::string(line.substr(digits, end - digits)));
}

void rule_verb_exhaustive(const std::vector<FileAnalysis>& files,
                          const fs::path* root, std::vector<Finding>& out) {
  // 1. Wire verbs: every command the parent can send must be decoded by the
  // shard child; every response a shard can emit must be dispatched by the
  // parent. Names are compared as identifiers, so renaming a constant and
  // forgetting one side fails loudly.
  const FileAnalysis* wire = find_by_suffix(files, "src/service/wire.hpp");
  const FileAnalysis* shard = find_by_suffix(files, "src/service/shard_child.cpp");
  const FileAnalysis* daemon = find_by_suffix(files, "src/service/locprivd.cpp");
  if (wire != nullptr) {
    std::map<std::string, std::size_t> verbs;  // name -> first declaration line
    for (const Token& t : wire->index.src.tokens) {
      if (!is_ident(t)) continue;
      const bool cmd = t.text.rfind("kCmd", 0) == 0 && t.text.size() > 4;
      const bool rsp = t.text.rfind("kRsp", 0) == 0 && t.text.size() > 4;
      if ((cmd || rsp) && verbs.find(t.text) == verbs.end())
        verbs.emplace(t.text, t.line);
    }
    for (const auto& [name, line] : verbs) {
      const bool cmd = name.rfind("kCmd", 0) == 0;
      const FileAnalysis* peer = cmd ? shard : daemon;
      const char* peer_name =
          cmd ? "src/service/shard_child.cpp" : "src/service/locprivd.cpp";
      if (peer == nullptr) continue;  // partial tree: nothing to check against
      if (file_has_ident(peer->index, name)) continue;
      add_unless_suppressed(
          *wire, line, kVerbExhaustive,
          "wire verb " + name + " is never referenced in " + peer_name +
              "; its decode switch must handle (or explicitly reject) every "
              "verb the peer can emit",
          out);
    }
  }

  // 2. Ledger record kinds: every kind keyed_fields_line() writes must have
  // a matching `{"<kind>":` parser on the replay side of the same file.
  if (const FileAnalysis* ledger =
          find_by_suffix(files, "src/core/harness/run_ledger.cpp")) {
    std::set<std::string> parsed;
    for (const Token& t : ledger->index.src.tokens)
      if (t.kind == TokenKind::kString || t.kind == TokenKind::kRawString)
        collect_parsed_kinds(t.text, parsed);
    for (const CallSite& call : ledger->index.calls) {
      if (call.name != "keyed_fields_line") continue;
      const auto args = split_arguments(ledger->index, call);
      if (args.empty()) continue;
      std::string kind;
      for (std::size_t i = args[0].first; i < args[0].second; ++i)
        if (ledger->index.src.tokens[i].kind == TokenKind::kString) {
          kind = ledger->index.src.tokens[i].text;
          break;
        }
      if (kind.empty() || parsed.count(kind) != 0) continue;
      add_unless_suppressed(
          *ledger, call.line, kVerbExhaustive,
          "ledger record kind \"" + kind +
              "\" is written but has no matching parser; replay() would "
              "treat a valid ledger as torn or corrupt",
          out);
    }
  }

  // 3. Exit-code taxonomy: ErrorCode values must biject with the README
  // exit-code table (plus the implicit 0 = success row).
  const FileAnalysis* error = find_by_suffix(files, "src/core/harness/error.hpp");
  if (error != nullptr && root != nullptr) {
    const fs::path readme = *root / "README.md";
    std::ifstream in(readme, std::ios::binary);
    if (in) {
      std::map<long, std::size_t> table;  // code -> README line
      bool in_section = false;
      std::string line;
      for (std::size_t number = 1; std::getline(in, line); ++number) {
        if (line.find("Exit codes") != std::string::npos) {
          in_section = true;
          continue;
        }
        if (!in_section) continue;
        if (!line.empty() && line[0] == '#') break;  // next section
        const long code = table_row_code(line);
        if (code >= 0) table.emplace(code, number);
      }
      if (!table.empty()) {
        // Enum members of `enum class ErrorCode { kX = N, ... }`.
        const std::vector<Token>& tokens = error->index.src.tokens;
        std::vector<std::tuple<std::string, long, std::size_t>> members;
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
          if (!is_ident(tokens[i], "ErrorCode")) continue;
          // Accept an enum-base clause between the name and the brace
          // (`enum class ErrorCode : int {`): skip from the `:` to the `{`.
          std::size_t open = i + 1;
          if (is_punct(tokens[open], ":"))
            while (open < tokens.size() && !is_punct(tokens[open], "{")) ++open;
          if (open >= tokens.size() || !is_punct(tokens[open], "{")) continue;
          long next_value = 0;
          for (std::size_t j = open + 1; j < tokens.size(); ++j) {
            const Token& t = tokens[j];
            if (is_punct(t, "}")) break;
            if (!is_ident(t)) continue;
            long value = next_value;
            if (j + 2 < tokens.size() && is_punct(tokens[j + 1], "=") &&
                tokens[j + 2].kind == TokenKind::kNumber)
              value = std::stol(tokens[j + 2].text);
            members.emplace_back(t.text, value, t.line);
            next_value = value + 1;
            // Skip to the comma so `= N` tokens are not re-read as members.
            while (j + 1 < tokens.size() && !is_punct(tokens[j + 1], ",") &&
                   !is_punct(tokens[j + 1], "}"))
              ++j;
          }
          break;  // first ErrorCode enum only
        }
        std::set<long> enum_values;
        for (const auto& [name, value, line] : members) {
          enum_values.insert(value);
          if (table.count(value) == 0)
            add_unless_suppressed(
                *error, line, kVerbExhaustive,
                "exit code " + std::to_string(value) + " (" + name +
                    ") is missing from the README exit-code table; the "
                    "taxonomy is the CLI's public contract",
                out);
        }
        if (!members.empty()) {
          for (const auto& [value, line] : table) {
            if (value == 0 || enum_values.count(value) != 0) continue;
            out.push_back({"README.md", line, std::string(kVerbExhaustive),
                           "README documents exit code " + std::to_string(value) +
                               " which ErrorCode does not define"});
          }
        }
      }
    }
  }
}

std::vector<Finding> cross_file_rules(const std::vector<FileAnalysis>& files,
                                      const fs::path* root) {
  std::vector<Finding> out;
  rule_signal_safety(files, out);
  rule_verb_exhaustive(files, root, out);
  return out;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

std::string read_file(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("locpriv-lint: cannot read " + file.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {kBlockingUnderLock,
       "blocking syscall (poll/read/write/waitpid/fsync/sleep/...) while a "
       "util::MutexLock is live in the enclosing scope; every waiter on that "
       "mutex stalls behind the kernel"},
      {kEintrRetry,
       "raw poll/read/write/waitpid whose result is not re-checked inside a "
       "loop mentioning EINTR; a stray signal (profiler, SIGCHLD) turns into "
       "a spurious failure"},
      {kExitCall,
       "exit()/quick_exit()/_Exit() outside a file that defines main(); throw "
       "locpriv::Error so destructors run and the exit-code taxonomy applies"},
      {kFdGuard,
       "function-local fd from open/pipe/dup/socket neither closed in the "
       "function nor handed to an owner; wrap it in harness::FdGuard so every "
       "exit path releases it"},
      {kLinearSpatialScan,
       "haversine/equirectangular distance call inside a loop under src/poi/ "
       "or src/privacy/; a per-query scan must carry a justification that "
       "bounds the loop (windows, one user's PoIs, one pair per fix)"},
      {kNondetRng,
       "std::rand/srand/random_device/time(nullptr): nondeterministic source "
       "breaks resume byte-identity; derive randomness from a seeded stats::Rng"},
      {kRawProcess,
       "direct fork/exec/waitpid/kill outside src/core/harness/; process "
       "lifecycle belongs to harness::ChildProcess (rlimits, reaping, "
       "graceful shutdown)"},
      {kRawWrite,
       "raw std::ofstream/fopen/rename artifact write outside src/core/harness/; "
       "route artifacts through AtomicFileWriter (torn-write invariant)"},
      {kSeqNarrowing,
       "32-bit type or cast applied to a *_seq/*_bytes counter under "
       "src/service/; wire sequence and byte counters are 64-bit end to end"},
      {kSignalSafety,
       "function reachable from a registered signal handler uses a "
       "non-async-signal-safe facility (allocation, logging, iostreams, "
       "locks); handlers may only touch lock-free atomics and raw fds"},
      {kSwallowedCatch,
       "catch (...) that neither rethrows, stores current_exception, nor aborts "
       "— concurrent failures must never be silently dropped"},
      {kUnboundedGrowth,
       "push/emplace onto long-lived state under src/service/ or "
       "src/core/harness/ with no cap or trim in sight; an always-on daemon "
       "must bound every container (window, watermark, or rolling cap)"},
      {kUncheckedIo,
       "write/pwrite/fsync/fdatasync/rename/ftruncate result discarded under "
       "src/core/harness/ or src/service/ (raw spelling or the FileOps "
       "layer); a failed durability call that nobody checks turns a storage "
       "fault into silent data loss"},
      {kUnorderedSerialize,
       "std::unordered_{map,set} in a file that serializes output; iteration "
       "order is nondeterministic, so artifact bytes can vary run to run"},
      {kVerbExhaustive,
       "wire verb, ledger record kind, or exit code without its counterpart: "
       "kCmd* must be decoded in shard_child.cpp, kRsp* in locprivd.cpp, "
       "ledger kinds must parse back in replay(), and ErrorCode must match "
       "the README exit-code table"},
  };
  return kRules;
}

bool is_known_rule(std::string_view name) {
  for (const RuleInfo& rule : rules())
    if (rule.name == name) return true;
  return false;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view content) {
  std::vector<FileAnalysis> files;
  files.push_back(analyze_source(path, content));
  std::vector<Finding> findings = std::move(files[0].findings);
  std::vector<Finding> cross = cross_file_rules(files, nullptr);
  findings.insert(findings.end(), std::make_move_iterator(cross.begin()),
                  std::make_move_iterator(cross.end()));
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  return findings;
}

std::vector<Finding> lint_file(const fs::path& file, const std::string& label) {
  return lint_source(label, read_file(file));
}

std::vector<Finding> lint_tree(const fs::path& root, std::size_t* files_scanned,
                               unsigned max_threads) {
  static constexpr std::string_view kDirs[] = {"src", "bench", "tools", "examples",
                                               "tests"};
  std::vector<fs::path> sources;
  std::vector<std::string> labels;
  for (const std::string_view dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      const std::string label = entry.path().lexically_relative(root).generic_string();
      // Fixture mini-trees carry real extensions so lint_tree can be pointed
      // AT them by the self-tests; the live scan must never descend into
      // them. (Flat fixtures additionally use .cc, which is not picked up.)
      if (label.find("lint_fixtures/") != std::string::npos) continue;
      sources.push_back(entry.path());
    }
  }
  // Sort by label so findings and analyses are ordered the same way on
  // every platform regardless of directory iteration order.
  std::vector<std::size_t> order(sources.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(sources.begin(), sources.end());
  labels.reserve(sources.size());
  for (const fs::path& source : sources)
    labels.push_back(source.lexically_relative(root).generic_string());
  if (files_scanned != nullptr) *files_scanned = sources.size();

  // Per-file analysis is embarrassingly parallel; results land in
  // index-keyed slots so the merge below is deterministic.
  std::vector<FileAnalysis> analyses(sources.size());
  util::parallel_for(
      sources.size(),
      [&](std::size_t i) {
        analyses[i] = analyze_source(labels[i], read_file(sources[i]));
      },
      max_threads);

  std::vector<Finding> findings;
  for (FileAnalysis& analysis : analyses)
    findings.insert(findings.end(),
                    std::make_move_iterator(analysis.findings.begin()),
                    std::make_move_iterator(analysis.findings.end()));
  std::vector<Finding> cross = cross_file_rules(analyses, &root);
  findings.insert(findings.end(), std::make_move_iterator(cross.begin()),
                  std::make_move_iterator(cross.end()));
  sort_findings(findings);
  return findings;
}

std::string format_text(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" + finding.rule +
         "] " + finding.message;
}

std::string format_github(const Finding& finding) {
  return "::error file=" + finding.file + ",line=" + std::to_string(finding.line) +
         ",title=locpriv-lint(" + finding.rule + ")::" + finding.message;
}

std::string format_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned) {
  util::JsonWriter json;
  json.begin_object();
  json.member("files_scanned", static_cast<std::uint64_t>(files_scanned));
  json.key("findings");
  json.begin_array();
  for (const Finding& finding : findings) {
    json.begin_object();
    json.member("file", finding.file);
    json.member("line", static_cast<std::uint64_t>(finding.line));
    json.member("rule", finding.rule);
    json.member("message", finding.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string rules_json() {
  util::JsonWriter json;
  json.begin_array();
  for (const RuleInfo& rule : rules()) {
    json.begin_object();
    json.member("name", rule.name);
    json.member("summary", rule.summary);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

}  // namespace locpriv::lint
