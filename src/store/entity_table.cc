#include "store/entity_table.h"

#include <array>
#include <cassert>
#include <mutex>
#include <shared_mutex>

#include "util/string_util.h"

namespace lsd {

namespace {

struct BuiltinSpec {
  EntityId id;
  const char* name;
};

constexpr std::array<BuiltinSpec, kNumBuiltinEntities> kBuiltins = {{
    {kEntTop, "ANY"},
    {kEntBottom, "NONE"},
    {kEntIsa, "ISA"},
    {kEntIn, "IN"},
    {kEntSyn, "SYN"},
    {kEntInv, "INV"},
    {kEntContra, "CONTRA"},
    {kEntLess, "<"},
    {kEntGreater, ">"},
    {kEntEq, "="},
    {kEntNeq, "/="},
    {kEntLessEq, "<="},
    {kEntGreaterEq, ">="},
    {kEntClassRel, "CLASS-REL"},
}};

// Unicode spellings from the paper, mapped to canonical names.
struct AliasSpec {
  const char* alias;
  const char* canonical;
};

constexpr AliasSpec kAliases[] = {
    {"≺", "ISA"},     // ≺
    {"∈", "IN"},      // ∈
    {"≈", "SYN"},     // ≈
    {"↔", "INV"},     // ↔
    {"⊥", "CONTRA"},  // ⊥
    {"≠", "/="},      // ≠
    {"≤", "<="},      // ≤
    {"≥", ">="},      // ≥
    {"Δ", "ANY"},     // Δ
    {"∇", "NONE"},    // ∇
};

// Bytes a string holds on the heap: none while it fits the
// small-string buffer.
size_t HeapBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

}  // namespace

EntityTable::EntityTable() {
  for (const auto& b : kBuiltins) {
    EntityId id = InternWithKind(b.name, EntityKind::kBuiltin);
    (void)id;
    assert(id == b.id);
  }
}

std::string EntityTable::Normalize(std::string_view name) {
  std::string upper = AsciiToUpper(StripWhitespace(name));
  for (const auto& a : kAliases) {
    if (upper == a.alias) return a.canonical;
  }
  return upper;
}

EntityId EntityTable::InternWithKind(std::string_view normalized,
                                     EntityKind kind) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(std::string(normalized));
  if (it != by_name_.end()) return it->second;
  Row row;
  row.name = std::string(normalized);
  row.kind = kind;
  if (auto num = ParseNumericEntity(normalized)) {
    row.is_numeric = true;
    row.numeric_value = *num;
  }
  EntityId id = static_cast<EntityId>(rows_.size());
  auto key = by_name_.emplace(row.name, id).first;
  rows_.push_back(std::move(row));
  name_heap_bytes_ += HeapBytes(key->first) + HeapBytes(rows_.back().name);
  return id;
}

EntityId EntityTable::Intern(std::string_view name) {
  return InternWithKind(Normalize(name), EntityKind::kRegular);
}

EntityId EntityTable::InternComposed(std::string_view name) {
  return InternWithKind(Normalize(name), EntityKind::kComposed);
}

void EntityTable::Reserve(size_t expected) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  by_name_.reserve(expected);
}

std::optional<EntityId> EntityTable::Lookup(std::string_view name) const {
  std::string normalized = Normalize(name);
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(normalized);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

size_t EntityTable::MemoryUsage() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  using Node = std::pair<const std::string, EntityId>;
  return rows_.size() * sizeof(Row) + name_heap_bytes_ +
         by_name_.bucket_count() * sizeof(void*) +
         by_name_.size() * (sizeof(Node) + sizeof(void*));
}

std::optional<double> EntityTable::NumericValue(EntityId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Row& row = rows_[id];
  if (!row.is_numeric) return std::nullopt;
  return row.numeric_value;
}

}  // namespace lsd
