#include "query/lexer.h"

#include <cctype>

#include "util/string_util.h"

namespace lsd {

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

// Ends a word between position lists.
bool IsDelimiter(char c) {
  return c == '(' || c == ')' || c == ',' || c == '?' || IsSpace(c);
}

Status ErrorAt(const std::string& msg, size_t offset) {
  return Status::ParseError(msg + " (offset " + std::to_string(offset) + ")");
}

TokenKind WordKind(std::string_view word) {
  if (word == "=>") return TokenKind::kArrow;
  if (word == ":=") return TokenKind::kDefines;
  const std::string lower = AsciiToLower(word);
  if (lower == "and") return TokenKind::kAnd;
  if (lower == "or") return TokenKind::kOr;
  if (lower == "exists") return TokenKind::kExists;
  if (lower == "forall") return TokenKind::kForall;
  if (lower == "where") return TokenKind::kWhere;
  return TokenKind::kEntity;
}

// Appends the tokens of the position list whose '(' is at input[*i] and
// moves *i past its ')'.
Status LexPositions(std::string_view input, size_t* i,
                    std::vector<Token>* tokens) {
  tokens->push_back({TokenKind::kLParen, "(", *i});
  for (size_t start = *i + 1;;) {
    const size_t end = input.find_first_of("(),", start);
    if (end == std::string_view::npos) {
      return ErrorAt("unbalanced '('", *i);
    }
    if (input[end] == '(') return ErrorAt("'(' inside a template", end);
    const std::string_view text =
        StripWhitespace(input.substr(start, end - start));
    const size_t offset = text.data() - input.data();
    if (text.find_first_of("\n\r") != std::string_view::npos) {
      return ErrorAt("line break inside a name", offset);
    }
    if (text == "?") {
      return ErrorAt("'?' must be followed by a variable name", offset);
    }
    if (!text.empty()) {
      const TokenKind kind = text == "*"       ? TokenKind::kStar
                             : text[0] == '?' ? TokenKind::kVariable
                                              : TokenKind::kEntity;
      tokens->push_back(
          {kind, std::string(text.substr(kind == TokenKind::kVariable)),
           offset});
    }
    if (input[end] == ')') {
      tokens->push_back({TokenKind::kRParen, ")", end});
      *i = end + 1;
      return Status::OK();
    }
    tokens->push_back({TokenKind::kComma, ",", end});
    start = end + 1;
  }
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < input.size()) {
    const char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    switch (c) {
      case '(': {
        const size_t next = input.find_first_of("(),", i + 1);
        if (next == std::string_view::npos || input[next] != '(') {
          LSD_RETURN_IF_ERROR(LexPositions(input, &i, &tokens));
        } else {
          tokens.push_back({TokenKind::kLParen, "(", i++});
        }
        continue;
      }
      case ')':
      case ',':
        tokens.push_back({c == ')' ? TokenKind::kRParen : TokenKind::kComma,
                          std::string(1, c), i++});
        continue;
      default: {
        // A word, or after '?' a variable's name.
        const bool var = c == '?';
        const size_t start = i + var;
        i = start;
        while (i < input.size() && !IsDelimiter(input[i])) ++i;
        const std::string_view word = input.substr(start, i - start);
        if (var && word.empty()) {
          return ErrorAt("'?' must be followed by a variable name", start - 1);
        }
        tokens.push_back({var ? TokenKind::kVariable : WordKind(word),
                          std::string(word), start - var});
        continue;
      }
    }
  }
  tokens.push_back({TokenKind::kEnd, "", input.size()});
  return tokens;
}

}  // namespace lsd
