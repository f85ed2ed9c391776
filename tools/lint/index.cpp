#include "lint/index.hpp"

#include <algorithm>
#include <array>

namespace locpriv::lint {

namespace {

// Keywords that look like `name(` but never are calls or definitions.
bool is_control_keyword(std::string_view name) {
  static constexpr std::array<std::string_view, 18> kKeywords = {
      "if",       "for",      "while",   "switch",        "catch",
      "return",   "sizeof",   "alignof", "alignas",       "decltype",
      "noexcept", "operator", "throw",   "static_assert", "do",
      "else",     "new",      "delete"};
  return std::find(kKeywords.begin(), kKeywords.end(), name) != kKeywords.end();
}

// Matches every '(' to its ')' and '{' to its '}' by token index. Unmatched
// tokens map to kNpos.
struct PairMaps {
  std::vector<std::size_t> match;  // per-token partner index or kNpos
};

PairMaps match_pairs(const std::vector<Token>& tokens) {
  PairMaps maps;
  maps.match.assign(tokens.size(), kNpos);
  std::vector<std::size_t> parens;
  std::vector<std::size_t> braces;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(") {
      parens.push_back(i);
    } else if (t.text == ")") {
      if (!parens.empty()) {
        maps.match[parens.back()] = i;
        maps.match[i] = parens.back();
        parens.pop_back();
      }
    } else if (t.text == "{") {
      braces.push_back(i);
    } else if (t.text == "}") {
      if (!braces.empty()) {
        maps.match[braces.back()] = i;
        maps.match[i] = braces.back();
        braces.pop_back();
      }
    }
  }
  return maps;
}

// Classifies the brace at `open` as a loop body and returns the extent of
// the whole statement when it is one.
void classify_loop(const std::vector<Token>& tokens, const PairMaps& pairs,
                   Scope& scope) {
  const std::size_t open = scope.open;
  scope.extent_lo = open;
  scope.extent_hi = scope.close;
  if (open == 0) return;
  const Token& prev = tokens[open - 1];
  if (is_punct(prev, ")")) {
    const std::size_t lparen = pairs.match[open - 1];
    if (lparen == kNpos || lparen == 0) return;
    const Token& keyword = tokens[lparen - 1];
    if (is_ident(keyword, "for") || is_ident(keyword, "while")) {
      scope.is_loop = true;
      scope.extent_lo = lparen - 1;  // header keyword through body close
    }
  } else if (is_ident(prev, "do")) {
    scope.is_loop = true;
    scope.extent_lo = open - 1;
    // Extend through the trailing `while ( ... )` so retry conditions in
    // the do-while condition count as "inside the loop".
    std::size_t i = scope.close + 1;
    if (i < tokens.size() && is_ident(tokens[i], "while") && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "(")) {
      const std::size_t rparen = pairs.match[i + 1];
      if (rparen != kNpos) scope.extent_hi = rparen;
    }
  }
}

// Walks a definition-candidate's trailer — the tokens between the parameter
// list's ')' and a possible body '{'. Returns the body '{' index, or kNpos
// when the construct is not a definition (declaration, initializer, ...).
std::size_t find_body(const std::vector<Token>& tokens, const PairMaps& pairs,
                      std::size_t rparen) {
  std::size_t i = rparen + 1;
  std::size_t steps = 0;
  bool after_colon = false;  // inside a constructor init list
  while (i < tokens.size() && ++steps < 256) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kPreproc) return kNpos;
    if (is_punct(t, "{")) {
      if (!after_colon) return i;
      // Brace-init of an init-list member (`: m{0}`): skip it and go on.
      const std::size_t close = pairs.match[i];
      if (close == kNpos) return kNpos;
      i = close + 1;
      continue;
    }
    if (is_punct(t, ";") || is_punct(t, "=")) return kNpos;
    if (is_punct(t, "(")) {  // init-list member or noexcept(...) — skip
      const std::size_t close = pairs.match[i];
      if (close == kNpos) return kNpos;
      i = close + 1;
      continue;
    }
    if (is_punct(t, ":")) {
      after_colon = true;
      ++i;
      continue;
    }
    if (is_punct(t, ",")) {
      // Between init-list members the next `{` is a member brace-init, but
      // after the LAST member the `{` is the body. We cannot tell without
      // full parsing; treat a `,` as staying in the init list.
      ++i;
      continue;
    }
    if (is_ident(t) || t.kind == TokenKind::kNumber ||
        t.kind == TokenKind::kString || is_punct(t, "::") || is_punct(t, "->") ||
        is_punct(t, "&") || is_punct(t, "&&") || is_punct(t, "*") ||
        is_punct(t, "<") || is_punct(t, ">") || is_punct(t, ">>") ||
        is_punct(t, "[") || is_punct(t, "]")) {
      ++i;
      continue;
    }
    return kNpos;  // anything else: not a definition header
  }
  return kNpos;
}

}  // namespace

std::size_t FileIndex::innermost_scope(std::size_t token) const {
  std::size_t best = kNpos;
  std::size_t best_span = kNpos;
  for (std::size_t s = 0; s < scopes.size(); ++s) {
    const Scope& scope = scopes[s];
    if (token <= scope.open || token >= scope.close) continue;
    const std::size_t span = scope.close - scope.open;
    if (span < best_span) {
      best = s;
      best_span = span;
    }
  }
  return best;
}

const FunctionDef* FileIndex::enclosing_function(std::size_t token) const {
  const FunctionDef* best = nullptr;
  std::size_t best_span = kNpos;
  for (const FunctionDef& fn : functions) {
    if (token < fn.body_open || token > fn.body_close) continue;
    const std::size_t span = fn.body_close - fn.body_open;
    if (span < best_span) {
      best = &fn;
      best_span = span;
    }
  }
  return best;
}

std::vector<const CallSite*> FileIndex::calls_in(const FunctionDef& fn) const {
  std::vector<const CallSite*> result;
  for (const CallSite& call : calls)
    if (call.name_token > fn.body_open && call.name_token < fn.body_close)
      result.push_back(&call);
  return result;
}

bool FileIndex::inside_loop(std::size_t token) const {
  for (const Scope& scope : scopes)
    if (scope.is_loop && token >= scope.extent_lo && token <= scope.extent_hi)
      return true;
  return false;
}

CallQual call_qual(const std::vector<Token>& tokens, std::size_t name) {
  if (name == 0) return CallQual::kNone;
  const Token& prev = tokens[name - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return CallQual::kMember;
  if (!is_punct(prev, "::")) return CallQual::kNone;
  // `Ns::f(` is type-qualified; `::f(` is the global-namespace syscall idiom.
  // A keyword before the `::` (`return ::read(...)`) is not a qualifier.
  return name >= 2 && is_ident(tokens[name - 2]) && !is_control_keyword(tokens[name - 2].text)
             ? CallQual::kType
             : CallQual::kGlobal;
}

FileIndex build_index(std::string path, std::string_view content) {
  FileIndex file;
  file.path = std::move(path);
  file.src = lex(content);
  const std::vector<Token>& tokens = file.src.tokens;
  const PairMaps pairs = match_pairs(tokens);

  // Brace scopes with parent links and loop classification.
  {
    std::vector<std::size_t> stack;  // scope indices
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (!is_punct(tokens[i], "{")) continue;
      const std::size_t close = pairs.match[i];
      if (close == kNpos) continue;
      Scope scope;
      scope.open = i;
      scope.close = close;
      while (!stack.empty() && file.scopes[stack.back()].close < i) stack.pop_back();
      scope.parent = stack.empty() ? kNpos : stack.back();
      classify_loop(tokens, pairs, scope);
      file.scopes.push_back(scope);
      stack.push_back(file.scopes.size() - 1);
    }
  }

  // Function definitions: `name(params) trailer {` outside any already
  // recorded body. Bodies never interleave, so one high-water mark is
  // enough to skip nested candidates (lambdas, local helpers).
  std::size_t body_end = 0;  // token index just past the last recorded body
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (i < body_end) continue;
    const Token& t = tokens[i];
    if (!is_ident(t) || is_control_keyword(t.text)) continue;
    if (!is_punct(tokens[i + 1], "(")) continue;
    if (i > 0 && (is_punct(tokens[i - 1], ".") || is_punct(tokens[i - 1], "->")))
      continue;
    const std::size_t rparen = pairs.match[i + 1];
    if (rparen == kNpos) continue;
    const std::size_t body = find_body(tokens, pairs, rparen);
    if (body == kNpos) continue;
    const std::size_t close = pairs.match[body];
    if (close == kNpos) continue;
    FunctionDef fn;
    fn.name = t.text;
    fn.name_token = i;
    fn.line = t.line;
    fn.body_open = body;
    fn.body_close = close;
    // Collect `A::B::name` qualification backwards.
    std::string qualified = fn.name;
    std::size_t back = i;
    while (back >= 2 && is_punct(tokens[back - 1], "::") && is_ident(tokens[back - 2])) {
      qualified = tokens[back - 2].text + "::" + qualified;
      back -= 2;
    }
    fn.qualified = std::move(qualified);
    file.functions.push_back(std::move(fn));
    body_end = close + 1;
  }

  // Call sites: every `name(` that is not a definition header name.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!is_ident(t) || is_control_keyword(t.text)) continue;
    if (!is_punct(tokens[i + 1], "(")) continue;
    bool is_def_name = false;
    for (const FunctionDef& fn : file.functions)
      if (fn.name_token == i) {
        is_def_name = true;
        break;
      }
    if (is_def_name) continue;
    const std::size_t rparen = pairs.match[i + 1];
    if (rparen == kNpos) continue;
    CallSite call;
    call.name = t.text;
    call.name_token = i;
    call.line = t.line;
    call.lparen = i + 1;
    call.rparen = rparen;
    call.qual = call_qual(tokens, i);
    file.calls.push_back(std::move(call));
  }

  return file;
}

std::vector<std::pair<std::size_t, std::size_t>> split_arguments(
    const FileIndex& file, const CallSite& call) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  const std::vector<Token>& tokens = file.src.tokens;
  std::size_t begin = call.lparen + 1;
  if (begin >= call.rparen) return args;
  int depth = 0;
  for (std::size_t i = begin; i < call.rparen; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (t.text == "," && depth == 0) {
      args.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  args.emplace_back(begin, call.rparen);
  return args;
}

}  // namespace locpriv::lint
