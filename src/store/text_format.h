// Human-readable .lsd format for loosely structured databases.
//
//   # comment (whole line)
//   (JOHN, WORKS-FOR, SHIPPING)            fact
//   @class TOTAL-NUMBER                    mark a class relationship
//   rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)
//   integrity pos-age: (?X, IN, AGE-VALUE) => (?X, >, 0)
//   rule r2: (?S, ?R, ?T), (?S2, ISA, ?S) => (?S2, ?R, ?T)
//       where ?R individual
//
// Entity names are case-normalized; '?' introduces a variable (valid in
// rules only). The paper's unicode relation symbols (≺ ∈ ≈ ↔ ⊥ ≠ ≤ ≥)
// are accepted as aliases for ISA/IN/SYN/INV/CONTRA//=/<=/>=.
#ifndef LSD_STORE_TEXT_FORMAT_H_
#define LSD_STORE_TEXT_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "query/definitions.h"
#include "rules/rule.h"
#include "store/fact_store.h"
#include "util/status.h"

namespace lsd {

// Parses one rule line (without the leading "rule"/"integrity" keyword
// handled by ParseText; this accepts "name: body => head [where ...]").
StatusOr<Rule> ParseRuleLine(std::string_view line, RuleKind kind,
                             EntityTable* entities);

// Parses a whole .lsd document, interning every name into `entities`.
// Facts and @class marks (as their (R, IN, CLASS-REL) facts) are
// appended to `facts` and asserted nowhere, so the caller routes them
// through its own mutation path; rules are appended to `rules` (when
// non-null). Lines of the form "define name(?P) := formula" are
// installed into `definitions` when it is non-null (else rejected).
// Errors carry 1-based line numbers.
Status ParseText(std::string_view text, EntityTable* entities,
                 std::vector<Fact>* facts, std::vector<Rule>* rules,
                 DefinitionRegistry* definitions = nullptr);

// Reads and parses a .lsd file.
Status LoadTextFile(const std::string& path, EntityTable* entities,
                    std::vector<Fact>* facts, std::vector<Rule>* rules,
                    DefinitionRegistry* definitions = nullptr);

// Renders all asserted facts, one per line, in SRT order.
std::string SerializeFacts(const FactStore& store);

// Renders a rule in the syntax ParseRuleLine accepts (including the
// leading "rule name:" / "integrity name:" keyword).
std::string SerializeRule(const Rule& rule, const EntityTable& entities);

// Parses what SerializeRule renders, as snapshots and WAL rule records
// store it: the keyword picks the rule's kind.
StatusOr<Rule> ParseSerializedRule(std::string_view text,
                                   EntityTable* entities);

// Writes facts + rules to a .lsd file.
Status SaveTextFile(const std::string& path, const FactStore& store,
                    const std::vector<Rule>& rules);

}  // namespace lsd

#endif  // LSD_STORE_TEXT_FORMAT_H_
