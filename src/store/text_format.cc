#include "store/text_format.h"

#include <fstream>
#include <sstream>

#include "store/delta_index.h"
#include "util/string_util.h"

namespace lsd {

namespace {

// Splits "(a, b, c), (d, e, f)" into the parenthesized groups.
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

// Parses one term inside a template: "?X" variable, otherwise an entity.
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
  // "?R individual, ?Q class"
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
      return Status::ParseError("unknown constraint '" + what +
                                "' (want individual|class)");
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

}  // namespace

StatusOr<Rule> ParseRuleLine(std::string_view line, RuleKind kind,
                             EntityTable* entities) {
  Rule rule;
  rule.kind = kind;

  size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("rule is missing 'name:' prefix: " +
                              std::string(line));
  }
  rule.name = AsciiToLower(StripWhitespace(line.substr(0, colon)));
  if (rule.name.empty()) {
    return Status::ParseError("rule has empty name");
  }
  std::string_view rest = line.substr(colon + 1);

  size_t arrow = rest.find("=>");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("rule is missing '=>': " + std::string(line));
  }
  std::string_view body_text = rest.substr(0, arrow);
  std::string_view head_text = rest.substr(arrow + 2);

  std::string_view where_text;
  // "where" splits the head from variable constraints.
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

Status ParseText(std::string_view text, EntityTable* entities,
                 std::vector<Fact>* facts, std::vector<Rule>* rules,
                 DefinitionRegistry* definitions) {
  size_t line_no = 0;
  for (std::string_view raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = StripWhitespace(raw);
    if (line.empty() || line.front() == '#') continue;
    auto fail = [&](const Status& s) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                s.message());
    };
    if (line.front() == '(') {
      std::vector<std::string> names;  // unused var table for facts
      std::vector<VarConstraint> constraints;
      auto groups = SplitTemplates(line);
      if (!groups.ok()) return fail(groups.status());
      for (std::string_view g : *groups) {
        auto tmpl =
            ParseTemplateGroup(g, entities, &names, &constraints, false);
        if (!tmpl.ok()) return fail(tmpl.status());
        facts->push_back(tmpl->Substitute(Binding(0)));
      }
      continue;
    }
    std::string lowered = AsciiToLower(line);
    if (StartsWith(lowered, "@class")) {
      std::string_view name = StripWhitespace(line.substr(6));
      if (name.empty()) return fail(Status::ParseError("@class needs a name"));
      facts->push_back(Fact(entities->Intern(name), kEntIn, kEntClassRel));
      continue;
    }
    if (StartsWith(lowered, "define ")) {
      if (definitions == nullptr) {
        return fail(Status::ParseError(
            "definitions are not accepted in this context"));
      }
      Status s = definitions->Define(line.substr(7), entities);
      if (!s.ok()) return fail(s);
      continue;
    }
    RuleKind kind;
    std::string_view rest;
    if (StartsWith(lowered, "rule ")) {
      kind = RuleKind::kInference;
      rest = line.substr(5);
    } else if (StartsWith(lowered, "integrity ")) {
      kind = RuleKind::kIntegrity;
      rest = line.substr(10);
    } else {
      return fail(Status::ParseError("unrecognized statement: " +
                                     std::string(line)));
    }
    auto rule = ParseRuleLine(rest, kind, entities);
    if (!rule.ok()) return fail(rule.status());
    if (rules != nullptr) rules->push_back(std::move(*rule));
  }
  return Status::OK();
}

Status LoadTextFile(const std::string& path, EntityTable* entities,
                    std::vector<Fact>* facts, std::vector<Rule>* rules,
                    DefinitionRegistry* definitions) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseText(buffer.str(), entities, facts, rules, definitions);
}

std::string SerializeFacts(const FactStore& store) {
  std::string out;
  store.base().ForEach(Pattern(), [&](const Fact& f) {
    out += f.DebugString(store.entities());
    out += "\n";
    return true;
  });
  return out;
}

std::string SerializeRule(const Rule& rule, const EntityTable& entities) {
  std::string out =
      rule.kind == RuleKind::kIntegrity ? "integrity " : "rule ";
  out += rule.name.empty() ? std::string("unnamed") : rule.name;
  out += ": ";
  out += rule.DebugString(entities);
  std::string where;
  for (size_t i = 0; i < rule.var_constraints.size(); ++i) {
    if (rule.var_constraints[i] == VarConstraint::kNone) continue;
    if (!where.empty()) where += ", ";
    where += "?" + rule.var_names[i] + " ";
    where += rule.var_constraints[i] == VarConstraint::kIndividualRelationship
                 ? "individual"
                 : "class";
  }
  if (!where.empty()) out += " where " + where;
  return out;
}

StatusOr<Rule> ParseSerializedRule(std::string_view text,
                                   EntityTable* entities) {
  if (StartsWith(text, "integrity ")) {
    return ParseRuleLine(text.substr(10), RuleKind::kIntegrity, entities);
  }
  if (StartsWith(text, "rule ")) text.remove_prefix(5);
  return ParseRuleLine(text, RuleKind::kInference, entities);
}

Status SaveTextFile(const std::string& path, const FactStore& store,
                    const std::vector<Rule>& rules) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << "# lsd database (generated)\n";
  out << SerializeFacts(store);
  for (const Rule& r : rules) {
    out << SerializeRule(r, store.entities()) << "\n";
  }
  out.flush();
  if (!out) {
    return Status::IoError("write to " + path + " failed");
  }
  return Status::OK();
}

}  // namespace lsd
