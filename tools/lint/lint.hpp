// locpriv-lint v2: machine-checks the repo invariants that PRs 1-7
// established by convention. The engine is three layers (see docs/lint.md):
// a C++ tokenizer (lexer.hpp), a per-file semantic index of functions /
// call sites / scopes with a whole-tree call graph (index.hpp), and the
// rules below. Rules are scoped to C++ sources under src/ bench/ tools/
// examples/ tests/ (fixtures under tests/lint_fixtures/ are excluded from
// tree scans).
//
// Line rules (v1, re-hosted on the lexer's blanked views):
//
//   raw-write           artifact writes must flow through the harness atomic
//                       writer (src/core/harness/ itself is exempt).
//   nondet-rng          library randomness must derive from a seeded
//                       stats::Rng; std::rand / srand / std::random_device /
//                       time(nullptr) break resume byte-identity.
//   unordered-serialize unordered containers in a file that also serializes
//                       output: iteration order is nondeterministic.
//   swallowed-catch     `catch (...)` whose handler neither rethrows, stores
//                       std::current_exception, nor aborts.
//   exit-call           exit() outside a file that defines main().
//   raw-process         direct fork/exec*/waitpid/kill outside
//                       src/core/harness/.
//   unbounded-growth    push/emplace onto long-lived member state with no
//                       cap or trim in sight (service + harness dirs only).
//
// Flow rules (v2, on the semantic index):
//
//   eintr-retry         raw poll/read/write/waitpid whose result is not
//                       re-checked inside a loop mentioning EINTR.
//   fd-guard            function-local open/pipe/dup/socket fds neither
//                       closed nor handed to an owner before scope exit.
//   blocking-under-lock blocking syscalls while a util::MutexLock is live
//                       in the enclosing scope.
//   seq-narrowing       32-bit types or casts applied to *_seq / *_bytes
//                       counters under src/service/.
//
// Cross-file rules (v2, on the whole-tree index; active in tree scans):
//
//   signal-safety       functions reachable from handlers registered via
//                       sigaction/std::signal that use non-async-signal-safe
//                       facilities (allocation, logging, iostreams, locks).
//   verb-exhaustive     every wire verb in src/service/wire.hpp must be
//                       decoded by its peer (kCmd* in shard_child.cpp,
//                       kRsp* in locprivd.cpp), every ledger record kind
//                       written must be parsed back by replay(), and the
//                       ErrorCode taxonomy must match the README exit-code
//                       table.
//
// Escape hatch: a comment of the form `locpriv-lint: allow(raw-write)` —
// one or more comma-separated rule names — suppresses those rules on its
// own line and the following line. A rule name the checker does not know is
// itself reported (rule "bad-suppression"), so a typo cannot silently
// disable checking. Live-tree suppressions must carry a justification in
// the same comment.
//
// Findings are file:line:rule triples with stable ordering, so CI diffs and
// GitHub annotations stay reproducible.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace locpriv::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based.
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// The suppressible rules, sorted by name.
const std::vector<RuleInfo>& rules();

/// True when `name` names a suppressible rule.
bool is_known_rule(std::string_view name);

/// Lints one translation unit held in memory. `path` labels the findings
/// and drives path-scoped exemptions (raw writes are legal under
/// src/core/harness/; seq-narrowing only patrols src/service/);
/// content-scoped exemptions (exit() in a main() file) come from `content`
/// itself. The single-file call also runs signal-safety over the one file;
/// verb-exhaustive needs a tree scan. Findings are sorted by (line, rule).
std::vector<Finding> lint_source(std::string_view path, std::string_view content);

/// Reads and lints one file; `label` (usually the repo-relative path) is
/// used for findings and exemptions. Throws std::runtime_error when the
/// file cannot be read.
std::vector<Finding> lint_file(const std::filesystem::path& file,
                               const std::string& label);

/// Walks the checked directories (src bench tools examples tests) under
/// `root` for .cpp/.hpp sources, lints each (files analyzed in parallel via
/// util::parallel_for with a deterministic index-ordered merge), then runs
/// the cross-file rules over the whole collection. Paths containing a
/// `lint_fixtures` component relative to `root` are skipped, so the fixture
/// mini-trees never leak into the live scan while `lint_tree` can still be
/// pointed AT a fixture mini-tree by the self-tests. Findings are sorted by
/// (file, line, rule); `files_scanned`, when non-null, receives the number
/// of sources visited. `max_threads` caps the analysis workers
/// (0 = hardware concurrency).
std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               std::size_t* files_scanned = nullptr,
                               unsigned max_threads = 0);

/// "file:line: [rule] message" — the stable text format.
std::string format_text(const Finding& finding);

/// GitHub Actions workflow-command format (one `::error` annotation).
std::string format_github(const Finding& finding);

/// The whole report as one JSON document:
/// {"files_scanned":N,"findings":[{"file":...,"line":N,"rule":...,
/// "message":...}, ...]} — findings in the same stable order as the text
/// format.
std::string format_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned);

/// The rule registry as a JSON array of {"name":...,"summary":...}.
std::string rules_json();

}  // namespace locpriv::lint
