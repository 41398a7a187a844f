// String-interning table mapping entity names <-> dense EntityIds.
//
// Names are case-normalized to upper ASCII (the paper writes all entities
// uppercase). Numeric names ("25000", "$25000", "2.6") are recognized at
// intern time and carry a double value so the math provider (Sec 3.6) can
// answer comparison facts without storing them.
//
// Thread safety: the table is append-only and internally synchronized —
// concurrent Intern and read calls are safe. This is what lets one table
// be shared by every epoch of a server (src/server) and by its many
// reader threads even though the commit leader interns new names and
// parsing a query interns on the fly. Rows are stored in a deque, so
// the reference returned by Name() stays valid for the table's lifetime
// regardless of later interning.
#ifndef LSD_STORE_ENTITY_TABLE_H_
#define LSD_STORE_ENTITY_TABLE_H_

#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "store/entity.h"
#include "store/fact.h"
#include "util/status.h"

namespace lsd {

class EntityTable {
 public:
  EntityTable();

  EntityTable(const EntityTable&) = delete;
  EntityTable& operator=(const EntityTable&) = delete;

  // Returns the id for `name`, interning it if new. Normalizes case and
  // resolves the unicode aliases the paper uses (≺, ∈, ≈, ↔, ⊥, ≠, ≤, ≥).
  EntityId Intern(std::string_view name);

  // The form a name is interned and looked up under: whitespace
  // stripped, ASCII upper case, the unicode aliases resolved. Reads no
  // table, so a caller can normalize names it must not intern.
  static std::string Normalize(std::string_view name);

  // Interns the three names of a fact. Every by-name assert interns
  // through here, so the order in which a fact's new names get their
  // ids is the same on every path (one by one or in bulk).
  Fact InternFact(std::string_view source, std::string_view relationship,
                  std::string_view target) {
    return Fact(Intern(source), Intern(relationship), Intern(target));
  }

  // Interns a composed entity (Sec 3.7), e.g.
  // "ENROLLED-IN.CS100.TAUGHT-BY". Kind is kComposed. The composition
  // engine interns none; the snapshot loader restores those a snapshot
  // holds.
  EntityId InternComposed(std::string_view name);

  // Returns the id for `name` without interning, or nullopt if unknown.
  std::optional<EntityId> Lookup(std::string_view name) const;
  // The fact of three known names, or nullopt if any name is unknown
  // (then no such fact is asserted).
  std::optional<Fact> LookupFact(std::string_view source,
                                 std::string_view relationship,
                                 std::string_view target) const {
    auto s = Lookup(source);
    auto r = Lookup(relationship);
    auto t = Lookup(target);
    if (!s || !r || !t) return std::nullopt;
    return Fact(*s, *r, *t);
  }

  // Pre-sizes the name hash for about `expected` entities, so a bulk
  // load (snapshot recovery, .lsd import) interns without rehashing.
  // Rows live in a deque and need no reservation.
  void Reserve(size_t expected);

  // Name of an entity. id must be valid. The reference is stable: rows
  // are never erased and deque growth does not move existing elements.
  const std::string& Name(EntityId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return rows_[id].name;
  }

  EntityKind Kind(EntityId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return rows_[id].kind;
  }

  // Numeric value if the entity is a number (Sec 3.6), else nullopt.
  std::optional<double> NumericValue(EntityId id) const;

  bool IsNumeric(EntityId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return rows_[id].is_numeric;
  }

  bool IsValid(EntityId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return id < rows_.size();
  }

  // Number of interned entities (including builtins).
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return rows_.size();
  }

  // Estimated resident bytes: the rows with their name buffers plus the
  // name hash (buckets and nodes). O(1): the name buffers are counted as
  // they are interned.
  size_t MemoryUsage() const;

 private:
  struct Row {
    std::string name;
    EntityKind kind = EntityKind::kRegular;
    bool is_numeric = false;
    double numeric_value = 0;
  };

  EntityId InternWithKind(std::string_view normalized, EntityKind kind);

  mutable std::shared_mutex mu_;
  std::deque<Row> rows_;
  std::unordered_map<std::string, EntityId> by_name_;
  size_t name_heap_bytes_ = 0;  // names' heap buffers, rows and keys
};

}  // namespace lsd

#endif  // LSD_STORE_ENTITY_TABLE_H_
