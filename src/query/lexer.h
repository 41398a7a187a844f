// Tokenizer for the one template notation every statement is written
// in (docs/FORMAT.md): facts, rules, queries, definitions and calls.
//
//   (?X, IN, BOOK) and exists ?Y ((?X, AUTHOR, ?Y) or (?X, EDITOR, ?Y))
//   r1: (?X, IN, A), (JOHN SMITH, *, ?X) => (?X, GOES, NOWHERE)
//   author-of(?B, ?A) := (?B, IN, BOOK) and (?B, AUTHOR, ?A)
//
// A '(' whose next '(', ')' or ',' is not a '(' opens a position list:
// each position is its text up to the next ',' or ')', trimmed — a lone
// '*' is kStar, '?NAME' a kVariable, any other text one kEntity name
// (inner spaces, '*', '?' and keywords included). An empty position
// yields no token; a position may not hold a '(' or a line break.
// Between position lists the input splits at whitespace, '(', ')', ','
// and '?'; there and, or, exists, forall, where (any case), => and :=
// are separators, '?NAME' a variable and any other word a kEntity (a
// definition's name, a where-clause's individual|class). So a keyword
// separates only between templates, never inside a name.
#ifndef LSD_QUERY_LEXER_H_
#define LSD_QUERY_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lsd {

enum class TokenKind : uint8_t {
  kLParen,
  kRParen,
  kComma,
  kStar,
  kVariable,  // text = name without '?'
  kEntity,    // text = a position's trimmed text, or a word
  kAnd,
  kOr,
  kExists,
  kForall,
  kWhere,
  kArrow,    // =>
  kDefines,  // :=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t offset = 0;  // byte offset in the input, for error messages
};

// Tokenizes the whole input. The last token is always kEnd.
StatusOr<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace lsd

#endif  // LSD_QUERY_LEXER_H_
