#include "lint/lexer.hpp"

#include <cctype>

namespace locpriv::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool digit(char c) { return c >= '0' && c <= '9'; }

// A `'` inside a number (`1'000'000`, `0xFF'FF`) separates digits instead
// of opening a character literal; `u8'x'` and `L'x'` start with a letter.
bool digit_separator(std::string_view text, std::size_t i) {
  if (i + 1 >= text.size() || !ident_char(text[i + 1])) return false;
  std::size_t start = i;
  while (start > 0 && (ident_char(text[start - 1]) || text[start - 1] == '\'' ||
                       text[start - 1] == '.'))
    --start;
  return start < i && digit(text[start]);
}

// Literal records produced by the blanking pass so the token pass can emit
// string/char tokens with their content without re-walking escapes.
struct LiteralSpan {
  std::size_t open = 0;   // offset of the opening quote in the buffer
  std::size_t close = 0;  // offset of the closing quote (== open if unterminated)
  std::size_t content_begin = 0;  // first byte of the literal's content
  std::size_t content_end = 0;    // one past the last content byte
  bool raw = false;
  bool is_char = false;
};

struct BlankedSource {
  std::string code;
  std::string comments;
  std::vector<LiteralSpan> literals;  // ordered by open offset
};

// Splits the text into a code view with comments and literal contents
// blanked (the token pass walks it) and a comment-only view, capturing
// literal spans on the way. Line structure is preserved in both views.
BlankedSource blank_views(std::string_view text) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  BlankedSource views;
  views.code.assign(text.size(), ' ');
  views.comments.assign(text.size(), ' ');
  State state = State::kCode;
  std::string raw_end;  // ")delim\"" terminator of the active raw string.
  std::size_t literal_open = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {  // Keep line structure in every view.
      views.code[i] = '\n';
      views.comments[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode: {
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;  // Skip the second slash (already blank in both views).
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && i > 0 && text[i - 1] == 'R') {
          // Raw string literal: R"delim( ... )delim". Scan the delimiter.
          std::size_t j = i + 1;
          std::string delim;
          while (j < text.size() && text[j] != '(' && delim.size() < 16)
            delim.push_back(text[j++]);
          raw_end = ")" + delim + "\"";
          state = State::kRawString;
          views.code[i] = '"';
          literal_open = i;
        } else if (c == '"') {
          state = State::kString;
          views.code[i] = '"';
          literal_open = i;
        } else if (c == '\'' && !digit_separator(text, i)) {
          state = State::kChar;
          views.code[i] = '\'';
          literal_open = i;
        } else {
          views.code[i] = c;
        }
        break;
      }
      case State::kLineComment:
        views.comments[i] = c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
          ++i;
        } else {
          views.comments[i] = c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // Skip the escaped character (stays blank).
        } else if (c == '"') {
          views.code[i] = '"';
          views.literals.push_back({literal_open, i, literal_open + 1, i, false, false});
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          views.code[i] = '\'';
          views.literals.push_back({literal_open, i, literal_open + 1, i, false, true});
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_end.size(), raw_end) == 0) {
          // Content sits between `R"delim(` and `)delim"`; raw_end is
          // `)delim"`, so the prefix `delim(` is raw_end.size()-1 bytes.
          const std::size_t content_begin = literal_open + raw_end.size();
          const std::size_t content_end = i;
          // Blank the terminator too, minus the closing quote we mirror.
          i += raw_end.size() - 1;
          if (i < text.size()) views.code[i] = '"';
          views.literals.push_back(
              {literal_open, i, content_begin, content_end, true, false});
          state = State::kCode;
        }
        break;
    }
  }
  return views;
}

}  // namespace

LexedSource lex(std::string_view text) {
  BlankedSource blanked = blank_views(text);
  LexedSource out;

  const std::string& code = blanked.code;
  std::size_t line = 1;
  std::size_t literal_cursor = 0;
  bool line_has_token = false;  // anything non-blank seen on this line yet?

  auto literal_at = [&](std::size_t offset) -> const LiteralSpan* {
    while (literal_cursor < blanked.literals.size() &&
           blanked.literals[literal_cursor].open < offset)
      ++literal_cursor;
    if (literal_cursor < blanked.literals.size() &&
        blanked.literals[literal_cursor].open == offset)
      return &blanked.literals[literal_cursor];
    return nullptr;
  };

  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      line_has_token = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Backslash-newline: a line continuation in plain code. The physical
    // line still advances; the logical token stream just flows on.
    if (c == '\\' && i + 1 < code.size() &&
        (code[i + 1] == '\n' ||
         (code[i + 1] == '\r' && i + 2 < code.size() && code[i + 2] == '\n'))) {
      i += code[i + 1] == '\n' ? 2 : 3;
      ++line;
      line_has_token = false;
      continue;
    }

    if (c == '#' && !line_has_token) {
      // Whole preprocessor directive as one token, backslash continuations
      // joined, so stringified code in a macro body never reaches the
      // identifier-level rules.
      const std::size_t start_line = line;
      std::string directive;
      while (i < code.size()) {
        const char d = code[i];
        if (d == '\n') {
          // Continued iff the last non-blank char on the line was '\'.
          std::size_t back = directive.find_last_not_of(" \t\r");
          if (back != std::string::npos && directive[back] == '\\') {
            directive.erase(back);  // join the continuation
            directive += ' ';
            ++line;
            ++i;
            continue;
          }
          break;
        }
        directive += d;
        ++i;
      }
      out.tokens.push_back({TokenKind::kPreproc, std::move(directive), start_line});
      line_has_token = true;
      continue;
    }

    line_has_token = true;

    if (c == '"' || c == '\'') {
      const LiteralSpan* span = literal_at(i);
      Token token;
      token.line = line;
      if (span != nullptr && span->close > span->open) {
        token.kind = span->is_char ? TokenKind::kChar
                     : span->raw  ? TokenKind::kRawString
                                  : TokenKind::kString;
        token.text.assign(
            text.substr(span->content_begin, span->content_end - span->content_begin));
        // Count the lines the literal spans (raw strings can be many).
        for (std::size_t b = span->open; b < span->close; ++b)
          if (text[b] == '\n') ++line;
        i = span->close + 1;
      } else {
        // Unterminated literal: consume to EOF.
        token.kind = c == '\'' ? TokenKind::kChar : TokenKind::kString;
        i = code.size();
      }
      out.tokens.push_back(std::move(token));
      continue;
    }

    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      // An identifier directly glued to a raw-string quote is the R prefix;
      // emit it anyway (the string token follows) — rules don't care.
      out.tokens.push_back(
          {TokenKind::kIdentifier, std::string(code.substr(i, j - i)), line});
      i = j;
      continue;
    }

    if (digit(c) || (c == '.' && i + 1 < code.size() && digit(code[i + 1]))) {
      std::size_t j = i + 1;
      while (j < code.size()) {
        const char d = code[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                    code[j - 1] == 'p' || code[j - 1] == 'P')) {
          ++j;  // exponent sign
        } else {
          break;
        }
      }
      out.tokens.push_back(
          {TokenKind::kNumber, std::string(code.substr(i, j - i)), line});
      i = j;
      continue;
    }

    // Punctuation. Fuse the two-char operators the rule layers reason about
    // structurally; everything else is one char at a time.
    std::string punct(1, c);
    if (i + 1 < code.size()) {
      const char next = code[i + 1];
      if ((c == ':' && next == ':') || (c == '-' && next == '>') ||
          (c == '<' && next == '<') || (c == '>' && next == '>') ||
          (c == '&' && next == '&') || (c == '|' && next == '|') ||
          (c == '=' && next == '=') || (c == '!' && next == '=') ||
          (c == '<' && next == '=') || (c == '>' && next == '='))
        punct += next;
    }
    out.tokens.push_back({TokenKind::kPunct, punct, line});
    i += punct.size();
  }

  out.comments = std::move(blanked.comments);
  return out;
}

}  // namespace locpriv::lint
