// Entity identity for lsd.
//
// The paper (Sec 2.1) assumes a universe E of distinctly named entities;
// relationships are themselves entities (the subset R). We intern every
// entity name to a dense 32-bit id. A handful of built-in entities defined
// by the paper occupy fixed low ids:
//
//   paper symbol | lsd name  | meaning
//   -------------+-----------+---------------------------------------
//   Delta        | ANY       | most abstract entity (top of ≺)
//   Nabla        | NONE      | most specific entity (bottom of ≺)
//   ≺            | ISA       | generalization (Sec 2.3)
//   ∈            | IN        | membership (Sec 2.3)
//   ≈            | SYN       | synonym (Sec 3.3)
//   ↔            | INV       | inversion (Sec 3.4)
//   ⊥            | CONTRA    | contradiction (Sec 3.5)
//   <,>,=,≠,≤,≥  | same      | mathematical relations (Sec 3.6, virtual)
//
// Relationship classes (Sec 2.2): R is partitioned into individual
// relationships R_i and class relationships R_c. The partition is itself
// stored as facts: (r, IN, CLASS-REL) marks r as a class relationship;
// relationships default to individual.
#ifndef LSD_STORE_ENTITY_H_
#define LSD_STORE_ENTITY_H_

#include <cstdint>
#include <limits>

namespace lsd {

using EntityId = uint32_t;

// Sentinel: never a valid entity. Used for "wildcard" slots in patterns.
inline constexpr EntityId kAnyEntity = std::numeric_limits<EntityId>::max();

// Fixed ids of built-in entities. EntityTable interns these first, in this
// order, so the constants below are valid for every table.
enum BuiltinEntity : EntityId {
  kEntTop = 0,       // ANY   (Delta)
  kEntBottom,        // NONE  (Nabla)
  kEntIsa,           // ISA   (generalization, ≺)
  kEntIn,            // IN    (membership, ∈)
  kEntSyn,           // SYN   (synonym, ≈)
  kEntInv,           // INV   (inversion, ↔)
  kEntContra,        // CONTRA(contradiction, ⊥)
  kEntLess,          // <
  kEntGreater,       // >
  kEntEq,            // =
  kEntNeq,           // /=
  kEntLessEq,        // <=
  kEntGreaterEq,     // >=
  kEntClassRel,      // CLASS-REL: (r, IN, CLASS-REL) => r in R_c
  kNumBuiltinEntities,
};

// How an entity came to exist. A composed entity names a composition
// (Sec 3.7) stored as an entity: the composition engine interns none,
// but a snapshot may hold them. They never act as composition links and
// are left out of e.g. semantic distance.
enum class EntityKind : uint8_t {
  kRegular = 0,
  kBuiltin = 1,
  kComposed = 2,
};

}  // namespace lsd

#endif  // LSD_STORE_ENTITY_H_
