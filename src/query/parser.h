// The one parser of the paper's template notation: every query, .lsd
// fact line, rule (from the rule/integrity verbs, .lsd files, WAL
// records and snapshots), definition, call and mutation verb is read by
// this recursive-descent grammar over the tokens of query/lexer.h.
//
//   formula    := and_expr ('or' and_expr)*
//   and_expr   := unary ('and' unary)*
//   unary      := ('exists'|'forall') variable+ unary
//               | '(' formula ')'          (when not a template)
//               | template
//   template   := '(' position ',' position ',' position ')'
//   position   := name | '?'name | '*'
//   templates  := template ([','] template)*
//   facts      := templates                 (no '?'name, no '*')
//   rule       := NAME ':' templates '=>' templates
//                 ['where' variable word (',' variable word)*]
//   definition := call ':=' formula         (each argument a variable)
//   call       := word '(' [position (',' position)*] ')'
//
// A statement must be consumed whole. '*' mints a fresh anonymous
// variable per occurrence (the paper's navigation shorthand, Sec 4.1),
// in rule bodies as in queries; in a rule head, where nothing could
// bind one, it is the entity '*', as stored rules have it. A rule's
// NAME is its text before the first ':'.
//
// The parser returns names: a parsed query's entity terms index its
// `names`, the positions' texts as written (trimmed, not normalized),
// which queries, rules, definitions, calls and .lsd loads intern, the
// mutation verbs normalize and shed pricing looks up.
#ifndef LSD_QUERY_PARSER_H_
#define LSD_QUERY_PARSER_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "query/ast.h"
#include "query/lexer.h"
#include "rules/rule.h"
#include "store/entity_table.h"
#include "util/status.h"

namespace lsd {

struct ParsedQuery {
  Query query;  // entity terms index `names`
  std::vector<std::string> names;
};

struct ParsedCall {
  std::string name;         // lowercase
  std::vector<Token> args;  // kEntity, kVariable or kStar
};

struct ParsedDefinition {
  ParsedCall head;
  ParsedQuery body;
};

// A ground template's source, relationship and target names.
using FactNames = std::array<std::string, 3>;

StatusOr<ParsedQuery> ParseQueryNames(std::string_view text);
StatusOr<ParsedDefinition> ParseDefinition(std::string_view text);
StatusOr<ParsedCall> ParseCallNames(std::string_view text);
StatusOr<std::vector<FactNames>> ParseFacts(std::string_view text);

// The query a parsed one denotes, its names interned in order.
Query InternNames(ParsedQuery parsed, EntityTable* entities);
StatusOr<Query> ParseQuery(std::string_view text, EntityTable* entities);

// Parses "name: body => head [where ...]", interning its names.
StatusOr<Rule> ParseRule(std::string_view text, RuleKind kind,
                         EntityTable* entities);

}  // namespace lsd

#endif  // LSD_QUERY_PARSER_H_
