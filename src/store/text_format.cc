#include "store/text_format.h"

#include <fstream>
#include <sstream>

#include "query/parser.h"
#include "store/delta_index.h"
#include "util/string_util.h"

namespace lsd {

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
      auto parsed = ParseFacts(line);
      if (!parsed.ok()) return fail(parsed.status());
      for (const FactNames& f : *parsed) {
        const EntityId s = entities->Intern(f[0]);
        const EntityId r = entities->Intern(f[1]);
        facts->push_back(Fact(s, r, entities->Intern(f[2])));
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
    if (!StartsWith(lowered, "rule ") && !StartsWith(lowered, "integrity ")) {
      return fail(Status::ParseError("unrecognized statement: " +
                                     std::string(line)));
    }
    auto rule = ParseSerializedRule(line, entities);
    if (!rule.ok()) return fail(rule.status());
    if (rules != nullptr) rules->push_back(std::move(*rule));
  }
  return Status::OK();
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
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
  const std::string keyword = AsciiToLower(text.substr(0, 10));
  if (StartsWith(keyword, "integrity ")) {
    return ParseRule(text.substr(10), RuleKind::kIntegrity, entities);
  }
  if (StartsWith(keyword, "rule ")) text.remove_prefix(5);
  return ParseRule(text, RuleKind::kInference, entities);
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
