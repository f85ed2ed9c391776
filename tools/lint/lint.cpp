#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type begin = 0;
  while (begin <= text.size()) {
    const auto end = text.find('\n', begin);
    if (end == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

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

// ---------------------------------------------------------------------------
// v1 line rules: regexes over the lexer's blanked code view. Behaviour is
// identical to the v1 scanner — the views are produced by the same state
// machine, now inside lex().
// ---------------------------------------------------------------------------

const std::regex& raw_write_re() {
  static const std::regex re(
      R"re(\bstd::ofstream\b|\bfopen\s*\(|\bfreopen\s*\(|\bstd::rename\s*\(|\bstd::filesystem::rename\s*\(|\bfs::rename\s*\()re");
  return re;
}

const std::regex& nondet_rng_re() {
  static const std::regex re(
      R"re(\bstd::rand\b|\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))re");
  return re;
}

const std::regex& unordered_re() {
  static const std::regex re(R"re(\bstd::unordered_(map|set|multimap|multiset)\b)re");
  return re;
}

// Tokens that mean "this file produces serialized artifacts": the util
// writers, the bench export helpers, and the harness publish entry points.
const std::regex& serialize_sink_re() {
  static const std::regex re(
      R"re(\b(JsonWriter|CsvWriter|SeriesCsv|export_table|write_file_atomic|AtomicFileWriter|write_plt|csv_escape|json_escape)\b)re");
  return re;
}

const std::regex& exit_call_re() {
  static const std::regex re(R"re(\bexit\s*\(|\bquick_exit\s*\(|\b_Exit\s*\()re");
  return re;
}

// Raw process-lifecycle primitives. The supervisor owns fork/kill/waitpid
// (child cleanup, rlimits, SIGTERM escalation, quarantine bookkeeping);
// scattered direct calls would leak children past graceful shutdown.
const std::regex& raw_process_re() {
  static const std::regex re(
      R"re(\b(fork|vfork|execl|execle|execlp|execv|execve|execvp|fexecve|posix_spawnp?|waitpid|kill)\s*\()re");
  return re;
}

// True when the name at `pos` is a C++ member or class-qualified call that
// merely shares a POSIX spelling — `rng.fork()`, `child->kill()`,
// `Rng::fork(` — as opposed to the real syscall wrapper. A global-namespace
// qualifier (`::fork(`) is still the syscall.
bool member_or_class_qualified(const std::string& code, std::size_t pos) {
  if (pos >= 1 && code[pos - 1] == '.') return true;
  if (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>') return true;
  if (pos >= 2 && code[pos - 2] == ':' && code[pos - 1] == ':' && pos >= 3) {
    const char before = code[pos - 3];
    return std::isalnum(static_cast<unsigned char>(before)) != 0 || before == '_';
  }
  return false;
}

const std::regex& main_definition_re() {
  static const std::regex re(R"re(\bint\s+main\s*\()re");
  return re;
}

const std::regex& catch_all_re() {
  static const std::regex re(R"re(catch\s*\(\s*\.\.\.\s*\))re");
  return re;
}

// A catch-all handler is fine when it forwards the exception somewhere:
// rethrow, capture via current_exception, or a deliberate hard stop.
const std::regex& handler_forwards_re() {
  static const std::regex re(
      R"re(\bthrow\b|\bcurrent_exception\b|\brethrow_exception\b|\babort\s*\()re");
  return re;
}

// Growth calls whose receiver is a member-access chain. Capture 1 is the
// chain ("shard.retained." / "stats_."), capture 2 the growth verb.
const std::regex& growth_call_re() {
  static const std::regex re(
      R"re(((?:[A-Za-z_]\w*(?:\.|->))+)(push_back|emplace_back|push_front|emplace_front)\s*\()re");
  return re;
}

// Evidence nearby code bounds the container: any explicit trim/reset call.
const std::regex& trim_token_re() {
  static const std::regex re(
      R"re(\b(pop_front|pop_back|erase|resize|clear|shrink_to_fit)\s*\()re");
  return re;
}

// Long-lived state heuristic: a chained receiver (`shard.retained`) or any
// component with the trailing-underscore member convention (`stats_`).
// Plain locals (`fields.push_back`) pass — the rule targets containers that
// outlive one call, where growth without a cap is a slow memory leak in an
// always-on service.
bool member_like_receiver(std::string chain) {
  std::string::size_type arrow;
  while ((arrow = chain.find("->")) != std::string::npos)
    chain.replace(arrow, 2, ".");
  std::size_t components = 0;
  std::stringstream parts(chain);
  std::string part;
  bool member_named = false;
  while (std::getline(parts, part, '.')) {
    if (part.empty()) continue;
    ++components;
    if (part.back() == '_') member_named = true;
  }
  return components >= 2 || member_named;
}

// The unbounded-growth rule only patrols the always-on daemon and the
// long-running sweep supervisor — the places where a slowly growing
// container is a production memory leak rather than a transient buffer.
bool is_longlived_state_path(std::string_view path) {
  const std::string p(path);
  return p.find("src/service/") != std::string::npos ||
         p.find("src/core/harness/") != std::string::npos;
}

const std::regex& suppression_re() {
  static const std::regex re(R"re(locpriv-lint:\s*allow\(([^)]*)\))re");
  return re;
}

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

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
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

Suppressions collect_suppressions(const std::string& path,
                                  const std::vector<std::string>& comment_lines) {
  Suppressions result;
  for (std::size_t i = 0; i < comment_lines.size(); ++i) {
    const std::size_t line = i + 1;
    auto begin = std::sregex_iterator(comment_lines[i].begin(), comment_lines[i].end(),
                                      suppression_re());
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      std::stringstream names((*it)[1].str());
      std::string name;
      bool any = false;
      while (std::getline(names, name, ',')) {
        name = trim(name);
        if (name.empty()) continue;
        any = true;
        if (is_known_rule(name)) {
          result.allowed[line].push_back(name);
        } else {
          result.errors.push_back(
              {path, line, std::string(kBadSuppression),
               "unknown rule '" + name + "' in locpriv-lint suppression"});
        }
      }
      if (!any)
        result.errors.push_back({path, line, std::string(kBadSuppression),
                                 "empty locpriv-lint suppression"});
    }
  }
  return result;
}

// Finds the extent of the {...} block following `from` in `code`; returns
// the block's contents, or empty when no block opens (e.g. macro trickery —
// then the conservative answer is "does not forward").
std::string catch_block(const std::string& code, std::size_t from) {
  const auto open = code.find('{', from);
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth == 0) return code.substr(open + 1, i - open - 1);
  }
  return code.substr(open + 1);
}

std::size_t line_of_offset(const std::vector<std::size_t>& line_starts,
                           std::size_t offset) {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), offset);
  return static_cast<std::size_t>(it - line_starts.begin());
}

// ---------------------------------------------------------------------------
// Per-file analysis: semantic index + suppressions + per-file findings.
// ---------------------------------------------------------------------------

struct FileAnalysis {
  FileIndex index;
  Suppressions suppressions;
  std::vector<Finding> findings;  // per-file findings, suppression-filtered
};

bool is_ident_token(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

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
    if (is_ident_token(file.src.tokens[i], name)) return true;
  return false;
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
        [](const Token& t) { return is_ident_token(t, "EINTR"); });
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
          if (tokens[i].kind == TokenKind::kIdentifier) {
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
        if (tokens[at - 1].kind != TokenKind::kPunct || tokens[at - 1].text != "=")
          continue;
        if (tokens[at - 2].kind != TokenKind::kIdentifier) continue;
        var = tokens[at - 2].text;
        if (ends_with(var, "_")) continue;  // member store: object owns it
        if (at >= 3 && tokens[at - 3].kind == TokenKind::kPunct &&
            (tokens[at - 3].text == "." || tokens[at - 3].text == "->"))
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
        if (is_ident_token(t, "return")) {
          // `return ... var ...;` — the caller owns it now (unless the
          // mention is only an argument of a borrowing call).
          for (std::size_t j = i + 1; j <= fn.body_close; ++j) {
            if (tokens[j].kind == TokenKind::kPunct && tokens[j].text == ";") break;
            if (is_ident_token(tokens[j], var) && !borrowed_at(j)) {
              escaped = true;
              break;
            }
          }
        } else if (is_ident_token(t, var) && i > fn.body_open &&
                   tokens[i - 1].kind == TokenKind::kPunct &&
                   tokens[i - 1].text == "=") {
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
    if (!is_ident_token(tokens[i], "MutexLock")) continue;
    if (i > 0 && tokens[i - 1].kind == TokenKind::kPunct &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->"))
      continue;
    // Declaration shape: `MutexLock name(...)` / `MutexLock name{...}`.
    if (tokens[i + 1].kind != TokenKind::kIdentifier) continue;
    if (tokens[i + 2].kind != TokenKind::kPunct ||
        (tokens[i + 2].text != "(" && tokens[i + 2].text != "{"))
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
    if (t.kind == TokenKind::kIdentifier && is_counter_name(t.text) && i > 0 &&
        tokens[i - 1].kind == TokenKind::kIdentifier &&
        is_narrow_type(tokens[i - 1].text)) {
      add(t.line, "counter '" + t.text + "' declared with 32-bit type '" +
                      tokens[i - 1].text + "'");
      continue;
    }
    // b) `static_cast<narrow>(...counter...)`.
    if (is_ident_token(t, "static_cast") && i + 1 < tokens.size() &&
        tokens[i + 1].kind == TokenKind::kPunct && tokens[i + 1].text == "<") {
      std::size_t j = i + 2;
      int depth = 1;
      bool narrow = false;
      while (j < tokens.size() && depth > 0) {
        const Token& u = tokens[j];
        if (u.kind == TokenKind::kPunct && u.text == "<") ++depth;
        if (u.kind == TokenKind::kPunct && (u.text == ">" || u.text == ">>")) {
          depth -= u.text == ">>" ? 2 : 1;
          if (depth <= 0) break;
        }
        if (u.kind == TokenKind::kIdentifier && is_narrow_type(u.text)) narrow = true;
        ++j;
      }
      if (!narrow || j + 1 >= tokens.size()) continue;
      if (tokens[j + 1].kind != TokenKind::kPunct || tokens[j + 1].text != "(")
        continue;
      int paren = 1;
      for (std::size_t k = j + 2; k < tokens.size() && paren > 0; ++k) {
        const Token& u = tokens[k];
        if (u.kind == TokenKind::kPunct && u.text == "(") ++paren;
        if (u.kind == TokenKind::kPunct && u.text == ")") --paren;
        if (u.kind == TokenKind::kIdentifier && is_counter_name(u.text)) {
          add(t.line, "static_cast to a 32-bit type applied to counter '" +
                          u.text + "'");
          break;
        }
      }
      continue;
    }
    // c) C cast: `(uint32_t)counter` / `(std::uint32_t)counter`.
    if (t.kind == TokenKind::kPunct && t.text == "(") {
      std::size_t j = i + 1;
      if (j < tokens.size() && is_ident_token(tokens[j], "std")) j += 2;
      if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier &&
          is_narrow_type(tokens[j].text) && j + 2 < tokens.size() &&
          tokens[j + 1].kind == TokenKind::kPunct && tokens[j + 1].text == ")" &&
          tokens[j + 2].kind == TokenKind::kIdentifier &&
          is_counter_name(tokens[j + 2].text)) {
        add(t.line, "C-style cast to 32-bit type applied to counter '" +
                        tokens[j + 2].text + "'");
      }
    }
  }
}

// ---- linear-spatial-scan --------------------------------------------------

// The spatial hot paths that must run through geo::GeoTree / GeoCellIndex
// instead of rescanning whole PoI/fix containers per query.
bool is_spatial_hot_path(std::string_view path) {
  const std::string p(path);
  return p.find("src/poi/") != std::string::npos ||
         p.find("src/privacy/") != std::string::npos;
}

bool is_distance_call(std::string_view name) {
  return in_set(name, {"haversine_m", "equirectangular_m", "haversine_from",
                       "equirectangular_from"});
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
             "() inside a loop in a spatial hot path; route the scan through "
             "geo::GeoTree / geo::GeoCellIndex, or suppress with a "
             "justification if the loop is inherently bounded (window, "
             "candidate refine, oracle)"});
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
      if (receiver.kind != TokenKind::kIdentifier ||
          receiver.text.find("ops") == std::string::npos)
        continue;
      start = call.name_token - 2;
    } else if (call.qual == CallQual::kType) {
      continue;  // std::rename / fs::rename — the raw-write rule owns those.
    }
    if (start == 0 || call.rparen + 1 >= tokens.size()) continue;
    const Token& after = tokens[call.rparen + 1];
    if (after.kind != TokenKind::kPunct || after.text != ";") continue;
    const Token& before = tokens[start - 1];
    const bool boundary =
        (before.kind == TokenKind::kPunct &&
         (before.text == ";" || before.text == "{" || before.text == "}" ||
          before.text == ")")) ||
        is_ident_token(before, "else") || is_ident_token(before, "do");
    if (!boundary) continue;
    // `(void)ops.fsync(fd);` is an explicit, visible discard.
    if (before.text == ")" && start >= 3 &&
        is_ident_token(tokens[start - 2], "void") &&
        tokens[start - 3].kind == TokenKind::kPunct &&
        tokens[start - 3].text == "(")
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
  const std::string& code_view = analysis.index.src.code;
  const std::string& comments_view = analysis.index.src.comments;
  const std::vector<std::string> code_lines = split_lines(code_view);
  const std::vector<std::string> comment_lines = split_lines(comments_view);
  const std::string label(path);

  analysis.suppressions = collect_suppressions(label, comment_lines);
  std::vector<Finding> findings = std::move(analysis.suppressions.errors);
  analysis.suppressions.errors.clear();

  const bool harness_file = is_harness_path(path);
  const bool longlived_file = is_longlived_state_path(path);
  const bool main_file = std::regex_search(code_view, main_definition_re());
  const bool serializes = std::regex_search(code_view, serialize_sink_re());

  auto add = [&](std::size_t line, std::string_view rule, std::string message) {
    if (analysis.suppressions.covers(line, rule)) return;
    findings.push_back({label, line, std::string(rule), std::move(message)});
  };

  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const std::size_t line = i + 1;
    const std::string& code = code_lines[i];
    if (!harness_file && std::regex_search(code, raw_write_re()))
      add(line, kRawWrite,
          "raw file write bypasses the harness atomic writer; use "
          "AtomicFileWriter/write_file_atomic so a crash cannot publish a torn "
          "artifact");
    if (std::regex_search(code, nondet_rng_re()))
      add(line, kNondetRng,
          "nondeterministic randomness/time source; derive all randomness from "
          "a seeded stats::Rng so resumed runs stay byte-identical");
    if (serializes && std::regex_search(code, unordered_re()))
      add(line, kUnorderedSerialize,
          "unordered container in a file that serializes output; use std::map "
          "or a sorted vector (or suppress after proving contents never reach "
          "an artifact)");
    if (!main_file && std::regex_search(code, exit_call_re()))
      add(line, kExitCall,
          "exit() outside a main() file skips destructors and the "
          "locpriv::Error exit-code taxonomy; throw instead");
    if (!harness_file) {
      for (auto match = std::sregex_iterator(code.begin(), code.end(),
                                             raw_process_re());
           match != std::sregex_iterator(); ++match) {
        if (member_or_class_qualified(code,
                                      static_cast<std::size_t>(match->position())))
          continue;
        add(line, kRawProcess,
            "raw " + (*match)[1].str() +
                "() outside src/core/harness/; run children through "
                "harness::ChildProcess so rlimits, reaping, and graceful "
                "shutdown stay centralized");
        break;  // One finding per line, matching the other rules.
      }
    }
    if (longlived_file) {
      for (auto match = std::sregex_iterator(code.begin(), code.end(),
                                             growth_call_re());
           match != std::sregex_iterator(); ++match) {
        if (!member_like_receiver((*match)[1].str())) continue;
        // A trim/reset within eight code lines either way is taken as the
        // matching bound (the pop to this push). Anything subtler needs an
        // explicit locpriv-lint: allow(unbounded-growth) with a reason.
        bool trimmed = false;
        const std::size_t lo = i >= 8 ? i - 8 : 0;
        const std::size_t hi = std::min(code_lines.size() - 1, i + 8);
        for (std::size_t j = lo; j <= hi && !trimmed; ++j)
          trimmed = std::regex_search(code_lines[j], trim_token_re());
        if (trimmed) continue;
        add(line, kUnboundedGrowth,
            "growth of long-lived container '" + (*match)[1].str() +
                (*match)[2].str() +
                "' with no cap or trim within 8 lines; bound it (window, "
                "watermark, rolling cap) or suppress with a justification");
        break;  // One finding per line, matching the other rules.
      }
    }
  }

  // swallowed-catch needs the handler block, which can span lines.
  std::vector<std::size_t> line_starts = {0};
  for (std::size_t i = 0; i < code_view.size(); ++i)
    if (code_view[i] == '\n') line_starts.push_back(i + 1);
  auto begin =
      std::sregex_iterator(code_view.begin(), code_view.end(), catch_all_re());
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const auto offset = static_cast<std::size_t>(it->position());
    const std::string block = catch_block(code_view, offset + it->length());
    if (std::regex_search(block, handler_forwards_re())) continue;
    add(line_of_offset(line_starts, offset), kSwallowedCatch,
        "catch (...) swallows the exception (handler neither rethrows, stores "
        "current_exception, nor aborts)");
  }

  // v2 flow rules append straight into analysis.findings; route them through
  // the same suppression filter.
  analysis.findings.clear();
  rule_eintr_retry(analysis);
  rule_fd_guard(analysis);
  rule_blocking_under_lock(analysis);
  rule_seq_narrowing(analysis);
  rule_linear_spatial_scan(analysis);
  rule_unchecked_io(analysis);
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
    if (!is_ident_token(tokens[i], "sa_handler") &&
        !is_ident_token(tokens[i], "sa_sigaction"))
      continue;
    if (tokens[i + 1].kind != TokenKind::kPunct || tokens[i + 1].text != "=")
      continue;
    std::size_t j = i + 2;
    if (tokens[j].kind == TokenKind::kPunct && tokens[j].text == "&") ++j;
    // Take the last identifier of a possibly qualified chain.
    std::string last;
    while (j < tokens.size()) {
      if (tokens[j].kind == TokenKind::kIdentifier) {
        last = tokens[j].text;
        ++j;
        if (j < tokens.size() && tokens[j].kind == TokenKind::kPunct &&
            tokens[j].text == "::") {
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
      if (tokens[i].kind == TokenKind::kIdentifier) last = tokens[i].text;
    if (!last.empty() && !is_signal_constant(last)) names.push_back(last);
  }
  return names;
}

// Facilities that are not async-signal-safe: allocation, stdio/logging,
// iostreams, formatting that allocates, and locks.
bool is_signal_unsafe_token(const Token& t) {
  if (t.kind != TokenKind::kIdentifier) return false;
  return in_set(t.text,
                {"LOCPRIV_LOG", "malloc", "calloc", "realloc", "free", "printf",
                 "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf", "puts",
                 "fputs", "fflush", "cout", "cerr", "clog", "endl",
                 "ostringstream", "stringstream", "ofstream", "ifstream",
                 "to_string", "MutexLock", "lock_guard", "unique_lock",
                 "scoped_lock", "new", "delete", "throw"});
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
    if (is_ident_token(t, name)) return true;
  return false;
}

void add_unless_suppressed(const FileAnalysis& file, std::size_t line,
                           std::string_view rule, std::string message,
                           std::vector<Finding>& out) {
  if (file.suppressions.covers(line, rule)) return;
  out.push_back({file.index.path, line, std::string(rule), std::move(message)});
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
      if (t.kind != TokenKind::kIdentifier) continue;
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
    static const std::regex kind_re(R"re(\{\\"(\w+)\\":)re");
    for (const Token& t : ledger->index.src.tokens) {
      if (t.kind != TokenKind::kString && t.kind != TokenKind::kRawString) continue;
      for (auto it = std::sregex_iterator(t.text.begin(), t.text.end(), kind_re);
           it != std::sregex_iterator(); ++it)
        parsed.insert((*it)[1].str());
    }
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
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::vector<std::string> readme_lines = split_lines(buffer.str());
      std::map<long, std::size_t> table;  // code -> README line
      static const std::regex row_re(R"re(^\s*\|\s*(\d+)\s*\|)re");
      bool in_section = false;
      for (std::size_t i = 0; i < readme_lines.size(); ++i) {
        const std::string& line = readme_lines[i];
        if (line.find("Exit codes") != std::string::npos) {
          in_section = true;
          continue;
        }
        if (!in_section) continue;
        if (!line.empty() && line[0] == '#') break;  // next section
        std::smatch match;
        if (std::regex_search(line, match, row_re))
          table.emplace(std::stol(match[1].str()), i + 1);
      }
      if (!table.empty()) {
        // Enum members of `enum class ErrorCode { kX = N, ... }`.
        const std::vector<Token>& tokens = error->index.src.tokens;
        std::vector<std::tuple<std::string, long, std::size_t>> members;
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
          if (!is_ident_token(tokens[i], "ErrorCode")) continue;
          // Accept an enum-base clause between the name and the brace
          // (`enum class ErrorCode : int {`): skip from the `:` to the `{`.
          std::size_t open = i + 1;
          if (tokens[open].kind == TokenKind::kPunct && tokens[open].text == ":")
            while (open < tokens.size() &&
                   !(tokens[open].kind == TokenKind::kPunct &&
                     tokens[open].text == "{"))
              ++open;
          if (open >= tokens.size() || tokens[open].kind != TokenKind::kPunct ||
              tokens[open].text != "{")
            continue;
          long next_value = 0;
          for (std::size_t j = open + 1; j < tokens.size(); ++j) {
            const Token& t = tokens[j];
            if (t.kind == TokenKind::kPunct && t.text == "}") break;
            if (t.kind != TokenKind::kIdentifier) continue;
            long value = next_value;
            if (j + 2 < tokens.size() && tokens[j + 1].kind == TokenKind::kPunct &&
                tokens[j + 1].text == "=" &&
                tokens[j + 2].kind == TokenKind::kNumber)
              value = std::stol(tokens[j + 2].text);
            members.emplace_back(t.text, value, t.line);
            next_value = value + 1;
            // Skip to the comma so `= N` tokens are not re-read as members.
            while (j + 1 < tokens.size() &&
                   !(tokens[j + 1].kind == TokenKind::kPunct &&
                     (tokens[j + 1].text == "," || tokens[j + 1].text == "}")))
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
       "or src/privacy/; per-query scans over whole PoI/fix containers belong "
       "in geo::GeoTree / geo::GeoCellIndex (suppress for inherently bounded "
       "loops: windows, candidate refines, oracles)"},
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
