#include "query/definitions.h"

#include <algorithm>

#include "query/parser.h"
#include "util/string_util.h"

namespace lsd {

namespace {

// Replaces occurrences of the variable `from` with `to` in a subtree.
void SubstituteVar(AstNode* node, VarId from, Term to) {
  switch (node->kind) {
    case NodeKind::kAtom:
      for (int i = 0; i < 3; ++i) {
        Term& term = node->atom.at(i);
        if (term.is_variable() && term.var() == from) term = to;
      }
      break;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      for (auto& c : node->children) SubstituteVar(c.get(), from, to);
      break;
    case NodeKind::kExists:
    case NodeKind::kForall:
      // A quantifier shadowing the parameter stops the substitution.
      if (node->quantified_var == from) return;
      SubstituteVar(node->children[0].get(), from, to);
      break;
  }
}

}  // namespace

Status DefinitionRegistry::Define(std::string_view text,
                                  EntityTable* entities) {
  LSD_ASSIGN_OR_RETURN(ParsedDefinition parsed, ParseDefinition(text));
  Definition definition;
  definition.name = std::move(parsed.head.name);
  for (const Token& param : parsed.head.args) {
    if (param.kind != TokenKind::kVariable) {
      return Status::ParseError(
          "definition parameters must be ?variables, got: " + param.text);
    }
    definition.params.push_back(AsciiToUpper(param.text));
  }
  definition.body = InternNames(std::move(parsed.body), entities);

  // Every parameter must occur free in the body; extra free variables
  // are allowed (they become output columns of every invocation).
  const std::vector<VarId> free = definition.body.FreeVars();
  for (const std::string& p : definition.params) {
    if (std::none_of(free.begin(), free.end(), [&](VarId v) {
          return definition.body.var_names()[v] == p;
        })) {
      return Status::ParseError("parameter ?" + p +
                                " does not occur free in the body");
    }
  }
  return Add(std::move(definition));
}

Status DefinitionRegistry::Add(Definition definition) {
  if (Has(definition.name)) {
    return Status::AlreadyExists("definition '" + definition.name +
                                 "' already exists");
  }
  definitions_.push_back(std::move(definition));
  return Status::OK();
}

bool DefinitionRegistry::Has(std::string_view name) const {
  return Find(name) != nullptr;
}

const Definition* DefinitionRegistry::Find(std::string_view name) const {
  std::string lower = AsciiToLower(name);
  for (const Definition& d : definitions_) {
    if (d.name == lower) return &d;
  }
  return nullptr;
}

std::vector<std::string> DefinitionRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(definitions_.size());
  for (const Definition& d : definitions_) out.push_back(d.name);
  return out;
}

StatusOr<Query> DefinitionRegistry::ParseCall(std::string_view text,
                                              EntityTable* entities) const {
  LSD_ASSIGN_OR_RETURN(ParsedCall call, ParseCallNames(text));
  const Definition* definition = Find(call.name);
  if (definition == nullptr) {
    return Status::NotFound("no definition named '" + call.name + "'");
  }
  const std::vector<Token>& args = call.args;
  if (args.size() != definition->params.size()) {
    return Status::InvalidArgument(
        "'" + definition->name + "' takes " +
        std::to_string(definition->params.size()) + " argument(s), got " +
        std::to_string(args.size()));
  }

  Query query = definition->body.Clone();
  std::vector<std::string> var_names = query.var_names();

  const size_t body_vars = var_names.size();
  int anon = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    const auto param = std::find(var_names.begin(),
                                 var_names.begin() + body_vars,
                                 definition->params[i]);
    if (param == var_names.begin() + body_vars) {
      return Status::Internal("definition parameter vanished");
    }
    const VarId param_id = static_cast<VarId>(param - var_names.begin());
    const Token& arg = args[i];
    Term replacement;
    if (arg.kind == TokenKind::kStar) {
      var_names.push_back("_CALL" + std::to_string(++anon));
      replacement = Term::Var(static_cast<VarId>(var_names.size() - 1));
    } else if (arg.kind == TokenKind::kVariable) {
      // Two parameters bound to the same name share the variable minted
      // for it; the body's own variables are never merged with.
      const std::string requested = AsciiToUpper(arg.text);
      size_t v = body_vars;
      while (v < var_names.size() && var_names[v] != requested) ++v;
      if (v == var_names.size()) var_names.push_back(requested);
      replacement = Term::Var(static_cast<VarId>(v));
    } else {
      replacement = Term::Entity(entities->Intern(arg.text));
    }
    SubstituteVar(query.mutable_root(), param_id, replacement);
  }

  return Query(query.mutable_root()->Clone(), std::move(var_names));
}

}  // namespace lsd
