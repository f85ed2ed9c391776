// Layer 1 of locpriv-lint v2: a line-attributed C++ tokenizer.
//
// Every rule (line, flow and cross-file) needs to know *which* identifier
// is a call, where a brace scope opens, and which line a token sits on.
// lex() produces:
//
//   - a token stream (identifiers, numbers, string/char literals incl. raw
//     strings, punctuation, whole preprocessor directives) where every token
//     carries the 1-based physical line it starts on, and
//   - a comment-only `comments` buffer with line structure preserved, which
//     the suppression-comment contract (see lint.hpp) is parsed from.
//
// Deliberate shapes:
//   - Keywords lex as identifiers; rule layers treat `new`/`throw` by name.
//   - A preprocessor directive (including backslash-continued lines) becomes
//     ONE kPreproc token, so code inside a macro body is invisible to every
//     rule: a call spelled in a `#define` is not a call site.
//   - String tokens keep their (raw, unescaped) source content in `text`;
//     no rule matches identifiers inside them. A `'` inside a number
//     (`1'000'000`) is a digit separator, not a character literal.
//   - `::` and `->` are single punctuation tokens: qualification is
//     structural information the call-site layer depends on. Whitespace and
//     comments between tokens carry no meaning (`a . b` is a member chain).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace locpriv::lint {

enum class TokenKind {
  kIdentifier,  // identifiers and keywords
  kNumber,
  kString,     // "..." (text = raw content between the quotes)
  kRawString,  // R"delim(...)delim" (text = raw content)
  kChar,       // '...'
  kPunct,      // one operator; `::` `->` `<<` `>>` stay fused
  kPreproc,    // a whole preprocessor directive, continuations joined
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  std::size_t line = 0;  // 1-based line where the token starts.
};

inline bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

inline bool is_ident(const Token& t, std::string_view text) {
  return is_ident(t) && t.text == text;
}

inline bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

struct LexedSource {
  std::vector<Token> tokens;
  std::string comments;  // only comment text, lines kept.
};

/// Tokenizes one translation unit. Never throws on malformed input: an
/// unterminated literal or comment simply ends at EOF (the goal is lint
/// robustness, not diagnostics).
LexedSource lex(std::string_view text);

}  // namespace locpriv::lint
