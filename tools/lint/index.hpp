// Layer 2 of locpriv-lint v2: a lightweight semantic index per translation
// unit, plus the whole-tree call graph the cross-file rules query.
//
// This is a heuristic indexer, not a parser: it matches braces and parens,
// recognises `name(args...) ... {` definition headers (including qualified
// names and constructor init lists), classifies every `name(` as a call
// site with its qualification (none / `::global` / `Type::` / member), and
// tags loop scopes with their full extent (header condition through do-while
// trailer) so flow rules can ask "is this call retried inside a loop that
// mentions EINTR?". Misparses degrade to missed attribution — a rule that
// consults the index can produce a false negative, never a crash.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace locpriv::lint {

inline constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/// How the name of a call site is qualified at the call.
enum class CallQual {
  kNone,    // f(...)
  kGlobal,  // ::f(...) — explicit global namespace (raw syscall idiom)
  kType,    // Ns::f(...) / Type::f(...)
  kMember,  // obj.f(...) / ptr->f(...)
};

struct CallSite {
  std::string name;            // simple (last) identifier of the callee
  std::size_t name_token = 0;  // token index of that identifier
  std::size_t line = 0;
  CallQual qual = CallQual::kNone;
  std::size_t lparen = 0;  // token index of '('
  std::size_t rparen = 0;  // token index of the matching ')'
};

struct Scope {
  std::size_t open = 0;           // token index of '{'
  std::size_t close = 0;          // token index of the matching '}'
  std::size_t parent = kNpos;     // enclosing scope, kNpos at top level
  bool is_loop = false;           // body of for/while/do
  std::size_t extent_lo = 0;      // loops: first header token (the keyword)
  std::size_t extent_hi = 0;      // loops: last token (do-while: the trailing cond)
};

struct FunctionDef {
  std::string name;       // simple name
  std::string qualified;  // "A::B::name" when the definition is qualified
  std::size_t name_token = 0;
  std::size_t line = 0;
  std::size_t body_open = 0;   // token index of '{'
  std::size_t body_close = 0;  // token index of '}'
};

struct FileIndex {
  std::string path;
  LexedSource src;
  std::vector<Scope> scopes;
  std::vector<FunctionDef> functions;
  std::vector<CallSite> calls;

  /// Innermost brace scope whose body contains `token`, kNpos if none.
  std::size_t innermost_scope(std::size_t token) const;

  /// The function whose body contains `token`, nullptr if none.
  const FunctionDef* enclosing_function(std::size_t token) const;

  /// Call sites whose body token range lies inside `fn`'s body.
  std::vector<const CallSite*> calls_in(const FunctionDef& fn) const;

  /// True when any enclosing loop's full extent (header + body + do-while
  /// trailer) contains a token for which `pred` holds.
  template <typename Pred>
  bool enclosing_loop_contains(std::size_t token, Pred pred) const {
    for (const Scope& scope : scopes) {
      if (!scope.is_loop) continue;
      if (token < scope.extent_lo || token > scope.extent_hi) continue;
      for (std::size_t i = scope.extent_lo; i <= scope.extent_hi; ++i)
        if (pred(src.tokens[i])) return true;
    }
    return false;
  }

  /// True when `token` sits inside at least one loop extent.
  bool inside_loop(std::size_t token) const;
};

/// How the identifier at token index `name` is qualified: the
/// classification build_index gives each call site, for any name token.
CallQual call_qual(const std::vector<Token>& tokens, std::size_t name);

/// Builds the index for one translation unit.
FileIndex build_index(std::string path, std::string_view content);

/// Splits the argument tokens of a call into top-level (depth-0) argument
/// token ranges [begin, end) — token indices into the file's stream.
std::vector<std::pair<std::size_t, std::size_t>> split_arguments(
    const FileIndex& file, const CallSite& call);

}  // namespace locpriv::lint
