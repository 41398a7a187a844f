// The Sec 6.1 definition facility: "implement new retrieval operators,
// based on the standard query language". A definition is a named,
// parameterized query:
//
//   author-of(?B, ?A) := (?B, IN, BOOK) and (?B, AUTHOR, ?A)
//
// Invocations substitute arguments for the parameters and yield an
// ordinary Query:
//
//   author-of(B-LOGIC, ?WHO)   ->  (B-LOGIC, IN, BOOK) and
//                                  (B-LOGIC, AUTHOR, ?WHO)
//
// Heads and invocations are read by the one template parser
// (query/parser.h): each argument is a position, so it may be an
// entity name (inner spaces and keywords included), a ?variable, or *
// (fresh anonymous variable). The built-in try(e) operator is definable
// this way in spirit; relation() is not (it changes the output shape),
// which is why those remain native operators.
#ifndef LSD_QUERY_DEFINITIONS_H_
#define LSD_QUERY_DEFINITIONS_H_

#include <string>
#include <vector>

#include "query/ast.h"
#include "store/entity_table.h"
#include "util/status.h"

namespace lsd {

struct Definition {
  std::string name;                 // lowercase
  std::vector<std::string> params;  // parameter variable names (no '?')
  Query body;                       // params appear as free variables
};

class DefinitionRegistry {
 public:
  DefinitionRegistry() = default;

  DefinitionRegistry(const DefinitionRegistry&) = delete;
  DefinitionRegistry& operator=(const DefinitionRegistry&) = delete;

  // Parses and installs "name(?P1, ?P2, ...) := formula".
  Status Define(std::string_view text, EntityTable* entities);

  Status Add(Definition definition);

  bool Has(std::string_view name) const;
  const Definition* Find(std::string_view name) const;
  std::vector<std::string> Names() const;
  // All installed definitions, definition order (epoch cloning).
  const std::vector<Definition>& all() const { return definitions_; }

  // Parses an invocation "name(arg, ...)" and returns the instantiated
  // query, its entity arguments interned.
  StatusOr<Query> ParseCall(std::string_view text,
                            EntityTable* entities) const;

 private:
  std::vector<Definition> definitions_;
};

}  // namespace lsd

#endif  // LSD_QUERY_DEFINITIONS_H_
