// The one template grammar, property-tested: seeded random facts, rules
// (with where-clauses), queries, definitions and calls are printed and
// parsed back. parse(print(x)) must equal x, and printing what was
// parsed must be a fixed point. The generated names hold inner spaces,
// keywords, "where" and "=>" inside a name, numbers and the paper's
// unicode aliases.
//
// The split parser that .lsd facts and rules went through before the
// one grammar is kept below as a reference: on every fact line and rule
// both accept, the two must read the same facts and rules. The only
// difference allowed is a lone '*' in a rule body, an entity to the
// split parser and an anonymous variable to the grammar. And every
// generated rule the split parser accepts, as WAL records and snapshots
// store it (SerializeRule), must parse to the rule the grammar reads
// from the same text, so that it replays.
#include <array>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "store/text_format.h"
#include "util/random.h"
#include "util/string_util.h"

namespace lsd {
namespace {

// ---- The split parser, as .lsd facts and rules were read before ----------

namespace legacy {

StatusOr<std::vector<std::string_view>> SplitTemplates(
    std::string_view text) {
  std::vector<std::string_view> groups;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == ',')) {
      ++i;
    }
    if (i >= text.size()) break;
    if (text[i] != '(') {
      return Status::ParseError("expected '(' in template list near: " +
                                std::string(text.substr(i)));
    }
    size_t close = text.find(')', i);
    if (close == std::string_view::npos) {
      return Status::ParseError("unbalanced '(' in template list");
    }
    groups.push_back(text.substr(i + 1, close - i - 1));
    i = close + 1;
  }
  if (groups.empty()) {
    return Status::ParseError("empty template list");
  }
  return groups;
}

StatusOr<Term> ParseTerm(std::string_view token, EntityTable* entities,
                         std::vector<std::string>* var_names,
                         std::vector<VarConstraint>* var_constraints,
                         bool allow_variables) {
  token = StripWhitespace(token);
  if (token.empty()) {
    return Status::ParseError("empty term in template");
  }
  if (token.front() == '?') {
    if (!allow_variables) {
      return Status::ParseError("variable " + std::string(token) +
                                " not allowed in a fact");
    }
    std::string name = AsciiToUpper(token.substr(1));
    if (name.empty()) {
      return Status::ParseError("'?' must be followed by a variable name");
    }
    for (size_t i = 0; i < var_names->size(); ++i) {
      if ((*var_names)[i] == name) {
        return Term::Var(static_cast<VarId>(i));
      }
    }
    var_names->push_back(name);
    var_constraints->push_back(VarConstraint::kNone);
    return Term::Var(static_cast<VarId>(var_names->size() - 1));
  }
  return Term::Entity(entities->Intern(token));
}

StatusOr<Template> ParseTemplateGroup(
    std::string_view group, EntityTable* entities,
    std::vector<std::string>* var_names,
    std::vector<VarConstraint>* var_constraints, bool allow_variables) {
  std::vector<std::string_view> parts = Split(group, ',');
  if (parts.size() != 3) {
    return Status::ParseError("template must have three positions: (" +
                              std::string(group) + ")");
  }
  LSD_ASSIGN_OR_RETURN(Term s, ParseTerm(parts[0], entities, var_names,
                                         var_constraints, allow_variables));
  LSD_ASSIGN_OR_RETURN(Term r, ParseTerm(parts[1], entities, var_names,
                                         var_constraints, allow_variables));
  LSD_ASSIGN_OR_RETURN(Term t, ParseTerm(parts[2], entities, var_names,
                                         var_constraints, allow_variables));
  return Template(s, r, t);
}

Status ParseWhereClause(std::string_view clause, Rule* rule) {
  for (std::string_view item : Split(clause, ',')) {
    item = StripWhitespace(item);
    if (item.empty()) continue;
    std::vector<std::string_view> words;
    for (std::string_view w : Split(item, ' ')) {
      if (!StripWhitespace(w).empty()) words.push_back(StripWhitespace(w));
    }
    if (words.size() != 2 || words[0].empty() || words[0][0] != '?') {
      return Status::ParseError("bad where-clause item: " +
                                std::string(item));
    }
    std::string var = AsciiToUpper(words[0].substr(1));
    std::string what = AsciiToLower(words[1]);
    VarConstraint constraint;
    if (what == "individual") {
      constraint = VarConstraint::kIndividualRelationship;
    } else if (what == "class") {
      constraint = VarConstraint::kClassRelationship;
    } else {
      return Status::ParseError("unknown constraint '" + what + "'");
    }
    bool found = false;
    for (size_t i = 0; i < rule->var_names.size(); ++i) {
      if (rule->var_names[i] == var) {
        rule->var_constraints[i] = constraint;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::ParseError("where-clause names unknown variable ?" +
                                var);
    }
  }
  return Status::OK();
}

StatusOr<Rule> ParseRuleLine(std::string_view line, RuleKind kind,
                             EntityTable* entities) {
  Rule rule;
  rule.kind = kind;
  size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("rule is missing 'name:' prefix");
  }
  rule.name = AsciiToLower(StripWhitespace(line.substr(0, colon)));
  if (rule.name.empty()) return Status::ParseError("rule has empty name");
  std::string_view rest = line.substr(colon + 1);
  size_t arrow = rest.find("=>");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("rule is missing '=>'");
  }
  std::string_view body_text = rest.substr(0, arrow);
  std::string_view head_text = rest.substr(arrow + 2);
  std::string_view where_text;
  std::string lowered = AsciiToLower(head_text);
  size_t where = lowered.find("where");
  if (where != std::string_view::npos) {
    where_text = head_text.substr(where + 5);
    head_text = head_text.substr(0, where);
  }
  LSD_ASSIGN_OR_RETURN(std::vector<std::string_view> body_groups,
                       SplitTemplates(body_text));
  for (std::string_view g : body_groups) {
    LSD_ASSIGN_OR_RETURN(
        Template t, ParseTemplateGroup(g, entities, &rule.var_names,
                                       &rule.var_constraints, true));
    rule.body.push_back(t);
  }
  LSD_ASSIGN_OR_RETURN(std::vector<std::string_view> head_groups,
                       SplitTemplates(head_text));
  for (std::string_view g : head_groups) {
    LSD_ASSIGN_OR_RETURN(
        Template t, ParseTemplateGroup(g, entities, &rule.var_names,
                                       &rule.var_constraints, true));
    rule.head.push_back(t);
  }
  if (!where_text.empty()) {
    LSD_RETURN_IF_ERROR(ParseWhereClause(where_text, &rule));
  }
  LSD_RETURN_IF_ERROR(rule.Validate());
  return rule;
}

StatusOr<std::vector<Fact>> ParseFactLine(std::string_view line,
                                          EntityTable* entities) {
  std::vector<std::string> names;
  std::vector<VarConstraint> constraints;
  LSD_ASSIGN_OR_RETURN(std::vector<std::string_view> groups,
                       SplitTemplates(line));
  std::vector<Fact> facts;
  for (std::string_view g : groups) {
    LSD_ASSIGN_OR_RETURN(
        Template t, ParseTemplateGroup(g, entities, &names, &constraints,
                                       /*allow_variables=*/false));
    facts.push_back(t.Substitute(Binding(0)));
  }
  return facts;
}

}  // namespace legacy

// ---- Generators ------------------------------------------------------------

// Entity names: plain, spaced, keywords, "where"/"=>" inside a name,
// '*' and '?' inside a name, numbers, the unicode aliases, lowercase.
std::string RandomName(Rng& rng) {
  static const char* const kWords[] = {
      "JOHN",  "OPERA",    "SMITH",   "and",     "OR",     "exists",
      "FORALL", "where",   "WHERE",   "NOWHERE", "A=>B",   "somewhere",
      "A*B",   "WHAT?",    "25000",   "$25000",  "2.6",    "≺",
      "∈",     "≈",        "↔",       "⊥",       "≠",      "≤",
      "≥",     "Δ",        "∇",       "PC#9-WAM", "/=",    "<=",
      "x:=y",  "ISA",      "in",      "=>",      ":=",     "**",
  };
  std::string name = kWords[rng.Uniform(std::size(kWords))];
  for (int extra = static_cast<int>(rng.Uniform(3)); extra > 0; --extra) {
    name += rng.Bernoulli(0.8) ? " " : "  ";
    name += kWords[rng.Uniform(std::size(kWords))];
  }
  return name;
}

std::string RandomVarName(Rng& rng) {
  static const char* const kVars[] = {"X", "Y", "z", "S2", "R", "Who",
                                      "T-1"};
  return kVars[rng.Uniform(std::size(kVars))];
}

// A generated position: what it prints as, and what it denotes.
struct GenTerm {
  enum Kind { kName, kVar, kAnon } kind;
  std::string text;  // the name, or the variable's name
};

std::string Print(const GenTerm& t) {
  switch (t.kind) {
    case GenTerm::kName:
      return t.text;
    case GenTerm::kVar:
      return "?" + t.text;
    case GenTerm::kAnon:
      return "*";
  }
  return "";
}

std::string Print(const std::array<GenTerm, 3>& t, Rng& rng) {
  // Spaces around positions are trimmed; vary them.
  auto pad = [&] { return std::string(rng.Uniform(2), ' '); };
  return "(" + pad() + Print(t[0]) + pad() + "," + pad() + Print(t[1]) +
         pad() + "," + pad() + Print(t[2]) + pad() + ")";
}

// Builds the expected variable table alongside the text: named
// variables by first occurrence, each '*' a fresh "_k".
class VarTable {
 public:
  Term Resolve(const GenTerm& t, EntityTable* entities) {
    switch (t.kind) {
      case GenTerm::kName:
        return Term::Entity(entities->Intern(t.text));
      case GenTerm::kVar:
        return Term::Var(Named(t.text));
      case GenTerm::kAnon:
        names_.push_back("_" + std::to_string(++anon_));
        return Term::Var(static_cast<VarId>(names_.size() - 1));
    }
    return Term();
  }

  VarId Named(const std::string& name) {
    const std::string upper = AsciiToUpper(name);
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == upper) return static_cast<VarId>(i);
    }
    names_.push_back(upper);
    return static_cast<VarId>(names_.size() - 1);
  }

  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  int anon_ = 0;
};

GenTerm RandomTerm(Rng& rng, const std::vector<std::string>& vars,
                   bool allow_anon) {
  const uint64_t pick = rng.Uniform(10);
  if (pick < 4 || vars.empty()) return {GenTerm::kName, RandomName(rng)};
  if (pick < 5 && allow_anon) return {GenTerm::kAnon, "*"};
  return {GenTerm::kVar, vars[rng.Uniform(vars.size())]};
}

// ---- Comparison ------------------------------------------------------------

void ExpectSameRule(const Rule& a, const Rule& b, const std::string& text) {
  EXPECT_EQ(a.name, b.name) << text;
  EXPECT_EQ(a.kind, b.kind) << text;
  EXPECT_EQ(a.body, b.body) << text;
  EXPECT_EQ(a.head, b.head) << text;
  EXPECT_EQ(a.var_names, b.var_names) << text;
  EXPECT_EQ(a.var_constraints, b.var_constraints) << text;
}

bool SameNode(const AstNode& a, const AstNode& b) {
  if (a.kind != b.kind || a.children.size() != b.children.size()) {
    return false;
  }
  if (a.kind == NodeKind::kAtom && !(a.atom == b.atom)) return false;
  if ((a.kind == NodeKind::kExists || a.kind == NodeKind::kForall) &&
      a.quantified_var != b.quantified_var) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SameNode(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

void ExpectSameQuery(const Query& a, const Query& b, const std::string& text) {
  EXPECT_TRUE(SameNode(*a.root(), *b.root())) << text;
  EXPECT_EQ(a.var_names(), b.var_names()) << text;
}

// A template position as the split parser and the grammar agree to
// read it: "=NAME" for an entity, "?NAME" for a variable.
std::string Canonical(const Term& t, const EntityTable& entities,
                      const std::vector<std::string>& var_names) {
  return t.is_entity() ? "=" + entities.Name(t.entity())
                       : "?" + var_names[t.var()];
}

class GrammarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// ---- Facts -----------------------------------------------------------------

TEST_P(GrammarPropertyTest, FactsRoundTripAndAgreeWithTheSplitParser) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<FactNames> facts(1 + rng.Uniform(3));
    std::string text;
    for (size_t i = 0; i < facts.size(); ++i) {
      std::array<GenTerm, 3> t;
      for (int p = 0; p < 3; ++p) {
        facts[i][p] = RandomName(rng);
        t[p] = {GenTerm::kName, facts[i][p]};
      }
      if (i > 0) text += rng.Bernoulli(0.5) ? ", " : " ";
      text += Print(t, rng);
    }
    auto parsed = ParseFacts(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, facts) << text;

    // Printing the parsed facts is a fixed point.
    EntityTable entities;
    std::string printed;
    for (const FactNames& f : *parsed) {
      printed += entities.InternFact(f[0], f[1], f[2]).DebugString(entities);
    }
    auto again = ParseFacts(printed);
    ASSERT_TRUE(again.ok()) << printed;
    std::string reprinted;
    for (const FactNames& f : *again) {
      reprinted += entities.InternFact(f[0], f[1], f[2]).DebugString(entities);
    }
    EXPECT_EQ(reprinted, printed);

    // The split parser, where it accepts, reads the same facts.
    EntityTable old_entities;
    auto old = legacy::ParseFactLine(text, &old_entities);
    if (old.ok()) {
      ASSERT_EQ(old->size(), parsed->size()) << text;
      for (size_t i = 0; i < old->size(); ++i) {
        EXPECT_EQ((*old)[i].DebugString(old_entities),
                  entities
                      .InternFact((*parsed)[i][0], (*parsed)[i][1],
                                  (*parsed)[i][2])
                      .DebugString(entities))
            << text;
      }
    }
  }
}

// ---- Rules -----------------------------------------------------------------

struct GenRule {
  std::string text;
  Rule expected;
};

GenRule RandomRule(Rng& rng, EntityTable* entities) {
  GenRule out;
  const bool integrity = rng.Bernoulli(0.2);
  out.expected.name = "r" + std::to_string(rng.Uniform(100));
  out.expected.kind = integrity ? RuleKind::kIntegrity : RuleKind::kInference;
  std::vector<std::string> pool;
  for (int i = 0; i < 3; ++i) pool.push_back(RandomVarName(rng));
  VarTable vars;
  std::string body_text;
  std::vector<std::string> body_vars;
  for (int i = 0, n = 1 + static_cast<int>(rng.Uniform(3)); i < n; ++i) {
    std::array<GenTerm, 3> t;
    Term terms[3];
    for (int p = 0; p < 3; ++p) {
      t[p] = RandomTerm(rng, pool, /*allow_anon=*/true);
      if (t[p].kind == GenTerm::kVar) body_vars.push_back(t[p].text);
      terms[p] = vars.Resolve(t[p], entities);
    }
    if (i > 0) body_text += rng.Bernoulli(0.7) ? ", " : " ";
    body_text += Print(t, rng);
    out.expected.body.emplace_back(terms[0], terms[1], terms[2]);
  }
  // A head names only variables its body binds (safety); a lone '*'
  // there is the entity '*'.
  std::string head_text;
  for (int i = 0, n = 1 + static_cast<int>(rng.Uniform(2)); i < n; ++i) {
    std::array<GenTerm, 3> t;
    Term terms[3];
    for (int p = 0; p < 3; ++p) {
      t[p] = RandomTerm(rng, body_vars, /*allow_anon=*/true);
      terms[p] = t[p].kind == GenTerm::kAnon
                     ? Term::Entity(entities->Intern("*"))
                     : vars.Resolve(t[p], entities);
    }
    if (i > 0) head_text += ", ";
    head_text += Print(t, rng);
    out.expected.head.emplace_back(terms[0], terms[1], terms[2]);
  }
  out.expected.var_names = vars.names();
  out.expected.var_constraints.assign(vars.names().size(),
                                      VarConstraint::kNone);
  std::string where;
  for (const std::string& v : body_vars) {
    if (!rng.Bernoulli(0.3)) continue;
    const bool individual = rng.Bernoulli(0.5);
    where += (where.empty() ? " where ?" : ", ?") + v +
             (individual ? " individual" : " CLASS");
    out.expected.var_constraints[vars.Named(v)] =
        individual ? VarConstraint::kIndividualRelationship
                   : VarConstraint::kClassRelationship;
  }
  out.text = out.expected.name + ": " + body_text + " => " + head_text + where;
  return out;
}

TEST_P(GrammarPropertyTest, RulesRoundTripAndAgreeWithTheSplitParser) {
  Rng rng(GetParam() + 100);
  int compared = 0;
  for (int trial = 0; trial < 300; ++trial) {
    EntityTable entities;
    GenRule gen = RandomRule(rng, &entities);
    auto parsed = ParseRule(gen.text, gen.expected.kind, &entities);
    ASSERT_TRUE(parsed.ok()) << gen.text << ": " << parsed.status().ToString();
    ExpectSameRule(*parsed, gen.expected, gen.text);

    // What snapshots and WAL records store parses back to the same rule,
    // and printing it again gives the same text.
    const std::string printed = SerializeRule(*parsed, entities);
    auto again = ParseSerializedRule(printed, &entities);
    ASSERT_TRUE(again.ok()) << printed << ": " << again.status().ToString();
    ExpectSameRule(*again, *parsed, printed);
    EXPECT_EQ(SerializeRule(*again, entities), printed);

    // The split parser, where it accepts, reads the same rule; only a
    // lone '*' in the body differs: an entity there, an anonymous
    // variable here.
    EntityTable old_entities;
    auto old = legacy::ParseRuleLine(gen.text, gen.expected.kind,
                                     &old_entities);
    if (!old.ok()) continue;
    ++compared;
    EXPECT_EQ(old->name, parsed->name);
    ASSERT_EQ(old->body.size(), parsed->body.size()) << gen.text;
    ASSERT_EQ(old->head.size(), parsed->head.size()) << gen.text;
    std::vector<Template> old_all = old->body;
    old_all.insert(old_all.end(), old->head.begin(), old->head.end());
    std::vector<Template> new_all = parsed->body;
    new_all.insert(new_all.end(), parsed->head.begin(), parsed->head.end());
    for (size_t i = 0; i < old_all.size(); ++i) {
      for (int p = 0; p < 3; ++p) {
        const std::string was =
            Canonical(old_all[i].at(p), old_entities, old->var_names);
        const std::string is =
            Canonical(new_all[i].at(p), entities, parsed->var_names);
        if (was == "=*" && i < old->body.size()) {
          EXPECT_TRUE(StartsWith(is, "?_")) << gen.text;
        } else {
          EXPECT_EQ(was, is) << gen.text;
        }
      }
    }

    // What an earlier build stored for the rule replays: its text parses
    // to the rule the grammar reads from the same statement.
    const std::string stored = SerializeRule(*old, old_entities);
    auto replayed = ParseSerializedRule(stored, &entities);
    ASSERT_TRUE(replayed.ok())
        << stored << ": " << replayed.status().ToString();
    ExpectSameRule(*replayed, *parsed, stored);
    std::map<std::string, VarConstraint> old_where, new_where;
    for (size_t v = 0; v < old->var_names.size(); ++v) {
      old_where[old->var_names[v]] = old->var_constraints[v];
    }
    for (size_t v = 0; v < parsed->var_names.size(); ++v) {
      if (!StartsWith(parsed->var_names[v], "_")) {
        new_where[parsed->var_names[v]] = parsed->var_constraints[v];
      }
    }
    EXPECT_EQ(old_where, new_where) << gen.text;
  }
  // Most generated rules avoid "where" and "=>" inside a name, so the
  // split parser reads them and the comparison is not vacuous.
  EXPECT_GT(compared, 30);
}

// ---- Queries ---------------------------------------------------------------

struct GenQuery {
  std::string text;
  std::unique_ptr<AstNode> root;
};

GenQuery RandomFormula(Rng& rng, int depth, std::vector<std::string>* scope,
                       VarTable* vars, EntityTable* entities) {
  const uint64_t pick = depth <= 0 ? 0 : rng.Uniform(5);
  if (pick <= 1) {
    std::array<GenTerm, 3> t;
    Term terms[3];
    for (int p = 0; p < 3; ++p) {
      t[p] = RandomTerm(rng, *scope, /*allow_anon=*/true);
      terms[p] = vars->Resolve(t[p], entities);
    }
    return {Print(t, rng), AstNode::Atom(Template(terms[0], terms[1], terms[2]))};
  }
  if (pick <= 3) {
    const bool conj = pick == 2;
    std::vector<std::unique_ptr<AstNode>> children;
    std::string text;
    for (int i = 0, n = 2 + static_cast<int>(rng.Uniform(2)); i < n; ++i) {
      GenQuery child = RandomFormula(rng, depth - 1, scope, vars, entities);
      const bool paren = child.root->kind == NodeKind::kAnd ||
                         child.root->kind == NodeKind::kOr;
      if (i > 0) text += conj ? (rng.Bernoulli(0.5) ? " and " : " AND ")
                              : (rng.Bernoulli(0.5) ? " or " : " Or ");
      text += paren ? "(" + child.text + ")" : child.text;
      children.push_back(std::move(child.root));
    }
    return {text, conj ? AstNode::And(std::move(children))
                       : AstNode::Or(std::move(children))};
  }
  const bool exists = rng.Bernoulli(0.5);
  const std::string var = RandomVarName(rng);
  const VarId id = vars->Named(var);
  scope->push_back(var);
  GenQuery child = RandomFormula(rng, depth - 1, scope, vars, entities);
  return {(exists ? "exists ?" : "forall ?") + var + " (" + child.text + ")",
          exists ? AstNode::Exists(id, std::move(child.root))
                 : AstNode::Forall(id, std::move(child.root))};
}

TEST_P(GrammarPropertyTest, QueriesRoundTrip) {
  Rng rng(GetParam() + 200);
  for (int trial = 0; trial < 300; ++trial) {
    EntityTable entities;
    VarTable vars;
    std::vector<std::string> scope = {RandomVarName(rng)};
    GenQuery gen = RandomFormula(rng, 3, &scope, &vars, &entities);
    auto parsed = ParseQuery(gen.text, &entities);
    ASSERT_TRUE(parsed.ok()) << gen.text << ": " << parsed.status().ToString();
    ExpectSameQuery(*parsed, Query(std::move(gen.root), vars.names()),
                    gen.text);

    const std::string printed = parsed->DebugString(entities);
    auto again = ParseQuery(printed, &entities);
    ASSERT_TRUE(again.ok()) << printed << ": " << again.status().ToString();
    ExpectSameQuery(*again, *parsed, printed);
    EXPECT_EQ(again->DebugString(entities), printed);
  }
}

// ---- Definitions and calls -------------------------------------------------

TEST_P(GrammarPropertyTest, DefinitionsAndCallsRoundTrip) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 200; ++trial) {
    EntityTable entities;
    VarTable vars;
    std::vector<std::string> scope = {"P", "Q"};
    GenQuery body = RandomFormula(rng, 2, &scope, &vars, &entities);
    const std::string name = rng.Bernoulli(0.5) ? "author-of" : "F";
    const std::string text = name + "(?P, ?q) := " + body.text;
    auto parsed = ParseDefinition(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->head.name, AsciiToLower(name));
    ASSERT_EQ(parsed->head.args.size(), 2u);
    EXPECT_EQ(parsed->head.args[0].text, "P");
    EXPECT_EQ(parsed->head.args[1].text, "q");
    ExpectSameQuery(InternNames(std::move(parsed->body), &entities),
                    Query(std::move(body.root), vars.names()), text);

    std::vector<GenTerm> args(rng.Uniform(4));
    std::string call = name + "(";
    for (size_t i = 0; i < args.size(); ++i) {
      args[i] = RandomTerm(rng, {"A", "b"}, /*allow_anon=*/true);
      call += (i > 0 ? ", " : "") + Print(args[i]);
    }
    call += ")";
    auto parsed_call = ParseCallNames(call);
    ASSERT_TRUE(parsed_call.ok())
        << call << ": " << parsed_call.status().ToString();
    EXPECT_EQ(parsed_call->name, AsciiToLower(name));
    ASSERT_EQ(parsed_call->args.size(), args.size()) << call;
    std::string printed = parsed_call->name + "(";
    for (size_t i = 0; i < args.size(); ++i) {
      const Token& arg = parsed_call->args[i];
      const TokenKind want = args[i].kind == GenTerm::kName ? TokenKind::kEntity
                             : args[i].kind == GenTerm::kVar
                                 ? TokenKind::kVariable
                                 : TokenKind::kStar;
      EXPECT_EQ(arg.kind, want) << call;
      EXPECT_EQ(arg.text, args[i].text) << call;
      printed += (i > 0 ? ", " : "") +
                 (arg.kind == TokenKind::kVariable ? "?" + arg.text : arg.text);
    }
    printed += ")";
    auto again = ParseCallNames(printed);
    ASSERT_TRUE(again.ok()) << printed;
    ASSERT_EQ(again->args.size(), args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      EXPECT_EQ(again->args[i].kind, parsed_call->args[i].kind);
      EXPECT_EQ(again->args[i].text, parsed_call->args[i].text);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrammarPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

}  // namespace
}  // namespace lsd
