#ifndef FVAE_TOOLS_CPP_LEXER_H_
#define FVAE_TOOLS_CPP_LEXER_H_

#include <cctype>
#include <string>
#include <vector>

/// Token-level C++ lexer for fvae_lint v2.
///
/// Deliberately small: it produces exactly the token stream the analyzer
/// needs (identifiers, numbers, string/char literal *contents*, punctuation,
/// whole preprocessor directives) and drops comments, so no rule can ever
/// fire inside a literal or a comment again. It understands:
///
///   - `//` and `/* */` comments (including multi-line);
///   - string literals with escapes, encoding prefixes (u8"", L"", ...) and
///     raw strings `R"delim(...)delim"` spanning lines;
///   - char literals with escapes, and digit separators (`1'000'000`) —
///     which are numbers, not the start of a char literal;
///   - preprocessor directives as one token per directive, honoring
///     backslash continuations.
///
/// It is NOT a preprocessor: macros are plain identifier tokens, which is
/// exactly what the fact extractor wants (FVAE_HOT, MutexLock, FVAE_LOG are
/// recognized by name).

namespace fvae::lint {

enum class TokKind {
  kIdent,
  kNumber,
  kString,   // text = literal contents, quotes/delimiters removed
  kChar,     // text = literal contents
  kPunct,    // text = operator spelling ("::", "->", "(", ...)
  kPreproc,  // text = full directive including '#', continuations joined
};

struct Tok {
  TokKind kind = TokKind::kPunct;
  std::string text;
  size_t line = 0;  // 1-based line of the token's first character
};

namespace lexdetail {

inline bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
inline bool IsDigit(char c) {
  return std::isdigit(static_cast<unsigned char>(c));
}

/// Encoding prefixes that may glue onto a string/char literal.
inline bool IsLiteralPrefix(const std::string& ident) {
  return ident == "u8" || ident == "u" || ident == "U" || ident == "L" ||
         ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}

}  // namespace lexdetail

/// Lexes `src` into tokens. Never fails: unterminated literals are closed
/// at end of input (the analyzer stays line-true on malformed files).
inline std::vector<Tok> LexCpp(const std::string& src) {
  using lexdetail::IsDigit;
  using lexdetail::IsIdentChar;
  using lexdetail::IsIdentStart;
  using lexdetail::IsLiteralPrefix;
  std::vector<Tok> out;
  const size_t n = src.size();
  size_t i = 0;
  size_t line = 1;
  bool at_line_start = true;  // only whitespace seen since last newline

  auto scan_string = [&](size_t* pos, bool raw) {
    // *pos is at the opening '"'. Returns literal contents.
    std::string text;
    size_t j = *pos + 1;
    if (raw) {
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '\n') delim += src[j++];
      if (j < n) ++j;  // '('
      const std::string closer = ")" + delim + "\"";
      const size_t end = src.find(closer, j);
      const size_t stop = end == std::string::npos ? n : end;
      for (size_t k = j; k < stop; ++k) {
        text += src[k];
        if (src[k] == '\n') ++line;
      }
      j = end == std::string::npos ? n : end + closer.size();
    } else {
      while (j < n && src[j] != '"' && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n) {
          text += src[j];
          text += src[j + 1];
          j += 2;
          continue;
        }
        text += src[j++];
      }
      if (j < n && src[j] == '"') ++j;
    }
    *pos = j;
    return text;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      continue;
    }
    // Preprocessor directive: '#' first on its logical line.
    if (c == '#' && at_line_start) {
      Tok tok{TokKind::kPreproc, "", line};
      while (i < n) {
        if (src[i] == '\n') {
          // Continuation only if the previous non-space char is '\'.
          size_t back = tok.text.size();
          while (back > 0 && (tok.text[back - 1] == ' ' ||
                              tok.text[back - 1] == '\t' ||
                              tok.text[back - 1] == '\r')) {
            --back;
          }
          if (back > 0 && tok.text[back - 1] == '\\') {
            tok.text.resize(back - 1);
            tok.text += ' ';
            ++line;
            ++i;
            continue;
          }
          break;
        }
        // A comment ends the directive scan (it cannot hide a continuation).
        if (src[i] == '/' && i + 1 < n &&
            (src[i + 1] == '/' || src[i + 1] == '*')) {
          break;
        }
        tok.text += src[i++];
      }
      out.push_back(std::move(tok));
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Identifier (possibly a string-literal prefix).
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      std::string ident = src.substr(start, i - start);
      if (i < n && src[i] == '"' && IsLiteralPrefix(ident)) {
        const bool raw = ident.back() == 'R';
        const size_t tok_line = line;
        out.push_back({TokKind::kString, scan_string(&i, raw), tok_line});
        continue;
      }
      if (i < n && src[i] == '\'' &&
          (ident == "u8" || ident == "u" || ident == "U" || ident == "L")) {
        // Prefixed char literal: fall through to char handling below.
        // (handled by pushing the prefix as its own token is wrong; consume)
        ++i;
        while (i < n && src[i] != '\'' && src[i] != '\n') {
          if (src[i] == '\\') ++i;
          ++i;
        }
        if (i < n && src[i] == '\'') ++i;
        out.push_back({TokKind::kChar, "", line});
        continue;
      }
      out.push_back({TokKind::kIdent, std::move(ident), line});
      continue;
    }
    // Number (handles digit separators, hex, exponents, float suffixes).
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(src[i + 1]))) {
      const size_t start = i;
      ++i;
      while (i < n) {
        const char d = src[i];
        if (IsIdentChar(d) || d == '.') {
          ++i;
        } else if (d == '\'' && i + 1 < n && IsIdentChar(src[i + 1])) {
          i += 2;  // digit separator
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;  // signed exponent
        } else {
          break;
        }
      }
      out.push_back({TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // String literal.
    if (c == '"') {
      const size_t tok_line = line;
      out.push_back({TokKind::kString, scan_string(&i, false), tok_line});
      continue;
    }
    // Char literal.
    if (c == '\'') {
      std::string text;
      ++i;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          i += 2;
          continue;
        }
        text += src[i++];
      }
      if (i < n && src[i] == '\'') ++i;
      out.push_back({TokKind::kChar, std::move(text), line});
      continue;
    }
    // Punctuation: two-character operators first, then single characters.
    static const char* kTwoChar[] = {"::", "->", "<<", ">>", "==", "!=",
                                     "<=", ">=", "&&", "||", "+=", "-=",
                                     "*=", "/=", "%=", "&=", "|=", "^=",
                                     "++", "--"};
    bool matched = false;
    if (i + 1 < n) {
      for (const char* op : kTwoChar) {
        if (src[i] == op[0] && src[i + 1] == op[1]) {
          out.push_back({TokKind::kPunct, op, line});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;
    out.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

/// Parses every `fvae-lint: allow(...)` marker on a raw source line and
/// returns true when any of them names `rule`. The argument is a
/// comma-separated rule list — `fvae-lint: allow(status-path,guarded-by)`
/// suppresses both rules on the line — with whitespace around each entry
/// ignored, so the single-rule spelling `allow(raw-mutex)` is the one-element
/// case of the same grammar. Both suppression layers (the per-file rules in
/// lint_rules.h and the whole-program LineAllows in lint_graph.h) call this,
/// so the two grammars can never drift apart.
inline bool SuppressionAllows(const std::string& raw_line,
                              const std::string& rule) {
  static const std::string kMarker = "fvae-lint: allow(";
  size_t pos = 0;
  while ((pos = raw_line.find(kMarker, pos)) != std::string::npos) {
    size_t i = pos + kMarker.size();
    const size_t close = raw_line.find(')', i);
    if (close == std::string::npos) return false;
    while (i < close) {
      size_t comma = raw_line.find(',', i);
      if (comma == std::string::npos || comma > close) comma = close;
      size_t b = i, e = comma;
      while (b < e && (raw_line[b] == ' ' || raw_line[b] == '\t')) ++b;
      while (e > b &&
             (raw_line[e - 1] == ' ' || raw_line[e - 1] == '\t')) {
        --e;
      }
      if (e > b && raw_line.compare(b, e - b, rule) == 0) return true;
      i = comma + 1;
    }
    pos = close + 1;
  }
  return false;
}

}  // namespace fvae::lint

#endif  // FVAE_TOOLS_CPP_LEXER_H_
