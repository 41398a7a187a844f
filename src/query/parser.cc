#include "query/parser.h"

#include <optional>

#include "util/string_util.h"

namespace lsd {

namespace {

// What a template's positions hold: names, variables and '*' (queries,
// rule bodies); names and variables, '*' naming the entity '*' (rule
// heads); or names only (facts).
enum class Positions { kAny, kHead, kFact };

class Parser {
 public:
  using NodeResult = StatusOr<std::unique_ptr<AstNode>>;

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {
    names_.reserve(tokens_.size());
  }

  const Token& Peek() const { return tokens_[pos_]; }
  // Tokens are read once: a caller may move out of the one it takes.
  Token& Take() { return tokens_[pos_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " (offset " +
                              std::to_string(Peek().offset) + ")");
  }
  Status Expect(TokenKind kind, const char* what) {
    return Accept(kind) ? Status::OK() : Error(std::string("expected ") + what);
  }
  // The statement must be consumed whole.
  Status End() const {
    return Peek().kind == TokenKind::kEnd
               ? Status::OK()
               : Error("unexpected trailing input");
  }

  // formula := and_expr ('or' and_expr)*, and_expr := unary ('and' unary)*
  NodeResult ParseFormula(TokenKind op = TokenKind::kOr) {
    auto operand = [&] {
      return op == TokenKind::kOr ? ParseFormula(TokenKind::kAnd)
                                  : ParseUnary();
    };
    LSD_ASSIGN_OR_RETURN(std::unique_ptr<AstNode> first, operand());
    if (Peek().kind != op) return first;
    std::vector<std::unique_ptr<AstNode>> children;
    children.push_back(std::move(first));
    while (Accept(op)) {
      LSD_ASSIGN_OR_RETURN(std::unique_ptr<AstNode> next, operand());
      children.push_back(std::move(next));
    }
    return op == TokenKind::kOr ? AstNode::Or(std::move(children))
                                : AstNode::And(std::move(children));
  }

  // template ([','] template)*
  StatusOr<std::vector<Template>> ParseTemplates(Positions positions) {
    std::vector<Template> out;
    do {
      if (!out.empty()) Accept(TokenKind::kComma);
      LSD_ASSIGN_OR_RETURN(Template t, ParseTemplate(positions));
      out.push_back(t);
    } while (Peek().kind == TokenKind::kLParen ||
             Peek().kind == TokenKind::kComma);
    return out;
  }

  // variable word (',' variable word)*, after a rule's 'where'.
  Status ParseWhere(Rule* rule) {
    rule->var_constraints.assign(var_names_.size(), VarConstraint::kNone);
    do {
      if (Peek().kind != TokenKind::kVariable) {
        return Error("expected a ?variable in the where-clause");
      }
      const std::string var = AsciiToUpper(Take().text);
      const std::string what = AsciiToLower(Peek().text);
      if (Peek().kind != TokenKind::kEntity ||
          (what != "individual" && what != "class")) {
        return Error("expected individual or class after ?" + var);
      }
      Take();
      const auto id = FindVar(var);
      if (!id.has_value()) {
        return Status::ParseError("where-clause names unknown variable ?" +
                                  var);
      }
      rule->var_constraints[*id] = what == "individual"
                                       ? VarConstraint::kIndividualRelationship
                                       : VarConstraint::kClassRelationship;
    } while (Accept(TokenKind::kComma));
    return Status::OK();
  }

  // word '(' [position (',' position)*] ')': a definition's head or a
  // call.
  StatusOr<ParsedCall> ParseCall() {
    if (Peek().kind != TokenKind::kEntity) {
      return Error("expected name(arg, ...)");
    }
    ParsedCall call{AsciiToLower(Take().text), {}};
    LSD_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'(' after the name"));
    if (Accept(TokenKind::kRParen)) return call;
    do {
      const TokenKind kind = Peek().kind;
      if (kind != TokenKind::kEntity && kind != TokenKind::kVariable &&
          kind != TokenKind::kStar) {
        return Error("expected an argument");
      }
      call.args.push_back(std::move(Take()));
    } while (Accept(TokenKind::kComma));
    LSD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')' after arguments"));
    return call;
  }

  // The variable table, the anonymous variables named "_1", "_2", ...
  // (skipping a name the text gives a variable).
  std::vector<std::string> TakeVarNames() {
    int counter = 0;
    for (std::string& name : var_names_) {
      if (!name.empty()) continue;
      std::string anonymous;
      do {
        anonymous = '_' + std::to_string(++counter);
      } while (FindVar(anonymous).has_value());
      name = std::move(anonymous);
    }
    return std::move(var_names_);
  }

  std::vector<std::string> TakeNames() { return std::move(names_); }

 private:
  // Until TakeVarNames, an anonymous variable's name is empty, which no
  // named variable's is.
  std::optional<VarId> FindVar(std::string_view upper) const {
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (var_names_[i] == upper) return static_cast<VarId>(i);
    }
    return std::nullopt;
  }

  VarId NewVar(std::string name) {
    var_names_.push_back(std::move(name));
    return static_cast<VarId>(var_names_.size() - 1);
  }

  VarId InternVar(std::string_view name) {
    std::string upper = AsciiToUpper(name);
    if (auto id = FindVar(upper)) return *id;
    return NewVar(std::move(upper));
  }

  NodeResult ParseUnary() {
    const TokenKind kind = Peek().kind;
    if (kind == TokenKind::kExists || kind == TokenKind::kForall) {
      Take();
      std::vector<VarId> vars;
      while (Peek().kind == TokenKind::kVariable) {
        vars.push_back(InternVar(Take().text));
      }
      if (vars.empty()) {
        return Error("quantifier needs at least one ?variable");
      }
      LSD_ASSIGN_OR_RETURN(std::unique_ptr<AstNode> node, ParseUnary());
      // Innermost variable binds closest.
      for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
        node = kind == TokenKind::kExists
                   ? AstNode::Exists(*it, std::move(node))
                   : AstNode::Forall(*it, std::move(node));
      }
      return node;
    }
    if (kind != TokenKind::kLParen) {
      return Error("expected '(', 'exists' or 'forall'");
    }
    // '(' starts either a template or a parenthesized formula: a formula
    // begins with '(', 'exists' or 'forall', which no position lexes as.
    const TokenKind next = tokens_[pos_ + 1].kind;
    if (next == TokenKind::kLParen || next == TokenKind::kExists ||
        next == TokenKind::kForall) {
      Take();
      LSD_ASSIGN_OR_RETURN(std::unique_ptr<AstNode> inner, ParseFormula());
      LSD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    LSD_ASSIGN_OR_RETURN(Template atom, ParseTemplate(Positions::kAny));
    return AstNode::Atom(atom);
  }

  StatusOr<Template> ParseTemplate(Positions positions) {
    LSD_RETURN_IF_ERROR(
        Expect(TokenKind::kLParen, "'(' to start a template"));
    Term terms[3];
    for (int i = 0; i < 3; ++i) {
      if (i > 0) {
        LSD_RETURN_IF_ERROR(Expect(TokenKind::kComma, "',' in template"));
      }
      LSD_ASSIGN_OR_RETURN(terms[i], ParseTerm(positions));
    }
    LSD_RETURN_IF_ERROR(
        Expect(TokenKind::kRParen, "')' to close template"));
    return Template(terms[0], terms[1], terms[2]);
  }

  StatusOr<Term> ParseTerm(Positions positions) {
    const TokenKind kind = Peek().kind;
    if (kind == TokenKind::kEntity ||
        (kind == TokenKind::kStar && positions == Positions::kHead)) {
      names_.push_back(std::move(Take().text));
      return Term::Entity(static_cast<EntityId>(names_.size() - 1));
    }
    if (kind != TokenKind::kVariable && kind != TokenKind::kStar) {
      return Error("expected a term (entity, ?var or *)");
    }
    if (positions == Positions::kFact) return Error("a fact holds no variable");
    const Token& tok = Take();
    return Term::Var(kind == TokenKind::kStar ? NewVar("")
                                              : InternVar(tok.text));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<std::string> names_;
  std::vector<std::string> var_names_;
};

StatusOr<Parser> Start(std::string_view text) {
  LSD_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens));
}

// Interns the name each entity term indexes and points the term at its
// id. A walk in text order interns the names in the order they were
// written, as a read of the text would.
void InternTerms(const std::vector<std::string>& names, EntityTable* entities,
                 Template* t) {
  for (int i = 0; i < 3; ++i) {
    Term& term = t->at(i);
    if (term.is_entity()) {
      term = Term::Entity(entities->Intern(names[term.entity()]));
    }
  }
}

void InternTerms(const std::vector<std::string>& names, EntityTable* entities,
                 AstNode* node) {
  if (node->kind == NodeKind::kAtom) InternTerms(names, entities, &node->atom);
  for (auto& child : node->children) InternTerms(names, entities, child.get());
}

StatusOr<ParsedQuery> FinishQuery(Parser* parser) {
  LSD_ASSIGN_OR_RETURN(std::unique_ptr<AstNode> root, parser->ParseFormula());
  LSD_RETURN_IF_ERROR(parser->End());
  return ParsedQuery{Query(std::move(root), parser->TakeVarNames()),
                     parser->TakeNames()};
}

}  // namespace

StatusOr<ParsedQuery> ParseQueryNames(std::string_view text) {
  LSD_ASSIGN_OR_RETURN(Parser parser, Start(text));
  return FinishQuery(&parser);
}

StatusOr<ParsedDefinition> ParseDefinition(std::string_view text) {
  LSD_ASSIGN_OR_RETURN(Parser parser, Start(text));
  LSD_ASSIGN_OR_RETURN(ParsedCall head, parser.ParseCall());
  LSD_RETURN_IF_ERROR(
      parser.Expect(TokenKind::kDefines, "':=' between head and body"));
  LSD_ASSIGN_OR_RETURN(ParsedQuery body, FinishQuery(&parser));
  return ParsedDefinition{std::move(head), std::move(body)};
}

StatusOr<ParsedCall> ParseCallNames(std::string_view text) {
  LSD_ASSIGN_OR_RETURN(Parser parser, Start(text));
  LSD_ASSIGN_OR_RETURN(ParsedCall call, parser.ParseCall());
  LSD_RETURN_IF_ERROR(parser.End());
  return call;
}

StatusOr<std::vector<FactNames>> ParseFacts(std::string_view text) {
  LSD_ASSIGN_OR_RETURN(Parser parser, Start(text));
  LSD_RETURN_IF_ERROR(parser.ParseTemplates(Positions::kFact).status());
  LSD_RETURN_IF_ERROR(parser.End());
  std::vector<std::string> names = parser.TakeNames();
  std::vector<FactNames> facts;
  for (size_t i = 0; i + 2 < names.size(); i += 3) {
    facts.push_back({std::move(names[i]), std::move(names[i + 1]),
                     std::move(names[i + 2])});
  }
  return facts;
}

Query InternNames(ParsedQuery parsed, EntityTable* entities) {
  InternTerms(parsed.names, entities, parsed.query.mutable_root());
  return std::move(parsed.query);
}

StatusOr<Query> ParseQuery(std::string_view text, EntityTable* entities) {
  LSD_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQueryNames(text));
  return InternNames(std::move(parsed), entities);
}

StatusOr<Rule> ParseRule(std::string_view text, RuleKind kind,
                         EntityTable* entities) {
  Rule rule;
  rule.kind = kind;
  const size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("rule is missing 'name:' prefix: " +
                              std::string(text));
  }
  rule.name = AsciiToLower(StripWhitespace(text.substr(0, colon)));
  if (rule.name.empty()) return Status::ParseError("rule has empty name");
  LSD_ASSIGN_OR_RETURN(Parser parser, Start(text.substr(colon + 1)));
  LSD_ASSIGN_OR_RETURN(rule.body, parser.ParseTemplates(Positions::kAny));
  LSD_RETURN_IF_ERROR(parser.Expect(TokenKind::kArrow, "'=>'"));
  LSD_ASSIGN_OR_RETURN(rule.head, parser.ParseTemplates(Positions::kHead));
  if (parser.Accept(TokenKind::kWhere)) {
    LSD_RETURN_IF_ERROR(parser.ParseWhere(&rule));
  }
  LSD_RETURN_IF_ERROR(parser.End());
  rule.var_names = parser.TakeVarNames();
  rule.var_constraints.resize(rule.var_names.size(), VarConstraint::kNone);
  const std::vector<std::string> names = parser.TakeNames();
  for (Template& t : rule.body) InternTerms(names, entities, &t);
  for (Template& t : rule.head) InternTerms(names, entities, &t);
  LSD_RETURN_IF_ERROR(rule.Validate());
  return rule;
}

}  // namespace lsd
