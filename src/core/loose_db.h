// LooseDb: the public facade of the library — a loosely structured
// database (Sec 2.6): a set of facts and a set of rules whose closure is
// expected to be contradiction-free, with the standard query language
// and both browsing styles on top.
//
// Typical use:
//
//   lsd::LooseDb db;
//   db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
//   db.Assert("SHIPPING", "IN", "DEPARTMENT");
//   auto result = db.Query("(JOHN, WORKS-FOR, ?X)");   // -> SHIPPING,
//                                                      //    DEPARTMENT
//   auto hood = db.Navigate("JOHN");                   // browsing
//   auto probe = db.Probe("(JOHN, MANAGES, ?X)");      // retraction
//
// The closure is computed lazily and cached. Fact asserts and retracts
// are folded into the cached closure on the next read (delete and
// re-derive, then extension); a rules change recomputes it. All
// operations are Status-based; the library never throws.
#ifndef LSD_CORE_LOOSE_DB_H_
#define LSD_CORE_LOOSE_DB_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "browse/navigation.h"
#include "browse/operators.h"
#include "browse/probing.h"
#include "browse/proximity.h"
#include "query/definitions.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "rules/composition.h"
#include "rules/contradiction.h"
#include "rules/rule_engine.h"
#include "store/persistence.h"
#include "util/status.h"

namespace lsd {

struct LooseDbOptions {
  // Install the paper's Sec 3 standard rule set and seed facts.
  bool standard_rules = true;
  ClosureOptions closure;
  // Default composition bound; the limit(n) operator (Sec 6.1).
  int composition_limit = 3;
};

class LooseDb {
 public:
  explicit LooseDb(const LooseDbOptions& options = LooseDbOptions());

  LooseDb(const LooseDb&) = delete;
  LooseDb& operator=(const LooseDb&) = delete;

  // ---- Facts -----------------------------------------------------------

  // Asserts a fact by entity names (interned as needed).
  Fact Assert(std::string_view source, std::string_view relationship,
              std::string_view target);
  bool Assert(const Fact& f);
  // Asserts every fact of `facts` as Assert would one by one (a
  // capturing commit logs the new ones in this order), but lands them in
  // the store as one sorted run, so a bulk load becomes frozen segments
  // instead of overlay inserts. Returns the number of facts added.
  size_t AssertAll(const std::vector<Fact>& facts);
  bool Retract(const Fact& f);
  // Retracts every fact of `facts` as Retract would one by one, but in
  // one pass over the store, so a frozen segment holding several of them
  // is rewritten once. Returns the number of facts removed.
  size_t RetractAll(const std::vector<Fact>& facts);
  // Retracts by names; NotFound if any name is unknown or the fact is
  // not asserted.
  Status Retract(std::string_view source, std::string_view relationship,
                 std::string_view target);

  // What Apply did with its fact records: an assert added its fact or
  // found it present; a retract removed its fact or found it missing.
  struct Tally {
    size_t added = 0, present = 0, removed = 0, missing = 0;
  };
  // Applies mutation records in order: the one applier of records, for
  // the server's write verbs and kMutation frames, the replication
  // follower, and session what-ifs. Each stretch of consecutive asserts
  // (or retracts) lands as one run (AssertAll/RetractAll), so a batch
  // rewrites a frozen segment once per stretch; within a stretch a
  // repeated fact counts once, as one-by-one calls would count it. A
  // retract resolves its names without interning them, so a retract of
  // an unknown name is missing and brings in no name. Rule records
  // tolerate overlap with the current state: a rule that already exists
  // or a toggle of an unknown rule is skipped. A record with an unknown
  // opcode or the wrong field count is DataLoss, with the records before
  // it applied.
  StatusOr<Tally> Apply(const std::vector<WalRecord>& records);

  // Marks a relationship as a class relationship (Sec 2.2).
  void MarkClassRelationship(std::string_view relationship);

  FactStore& store() { return store_; }
  const FactStore& store() const { return store_; }
  EntityTable& entities() { return store_.entities(); }
  const EntityTable& entities() const { return store_.entities(); }

  // ---- Rules -----------------------------------------------------------

  // Parses and installs "name: (body...) => (head...) [where ...]".
  Status DefineRule(std::string_view text,
                    RuleKind kind = RuleKind::kInference);
  Status AddRule(Rule rule);

  // include(rule)/exclude(rule) (Sec 6.1). NotFound for unknown names.
  Status SetRuleEnabled(std::string_view name, bool enabled);
  bool IsRuleEnabled(std::string_view name) const;

  const std::vector<Rule>& rules() const { return rules_; }

  // limit(n) (Sec 6.1): bound on composition chain length; 1 disables.
  void SetCompositionLimit(int n) { composition_limit_ = n; }
  int composition_limit() const { return composition_limit_; }

  // ---- Versions & cloning ------------------------------------------------

  // The (store, rules) version key pair the closure and planner caches
  // are keyed by (the lattice follows the generalization clock, which
  // View() advances when the closure's ISA facts may change).
  // Observability breadcrumb for the shell's `stats` and the server's
  // STATS verb; the serving layer also uses the pair to detect no-op
  // commits.
  uint64_t store_version() const { return store_.version(); }
  uint64_t rules_version() const { return rules_version_; }

  // Pre-materializes every lazily computed cache so subsequent const
  // reads never write the cache fields: the closure (View: the cached
  // one maintained by the fact changes since, or a full recompute over
  // the store's index compacted to one segment),
  // the generalization lattice (a pointer kept while the generalization
  // clock holds, else an ISA-slice rebuild) and the planner's version
  // key. It also fixes the entity universe (FactStore::universe) at the
  // table's current size. A warmed database whose facts and rules no
  // longer change is safe for concurrent readers: the entity table is
  // internally synchronized, the planner cache is mutex-guarded, and
  // everything else is read-only. This is the serving layer's publish
  // barrier.
  Status Warm();

  // Makes `out` — freshly constructed with standard_rules = false —
  // a copy of this database in O(1) of its size: it shares the entity
  // table (ids mean the same thing in both, and names either side
  // interns appear in both) and the fact index, which the copy's first
  // fact change copies (segment pointers plus overlay). Rules, operator
  // definitions and the composition limit are copied; both version
  // counters are adopted, so any later mutation moves the copy off the
  // source's key pair. A current closure's tiers are shared too,
  // together with its generalization clock and lattice, so commit
  // clones, published epochs and session overlays hold one closure and
  // one lattice until their facts diverge; otherwise the copy's caches
  // start cold. The mutation capture is not copied. This is the serving
  // layer's copy-on-commit path, and session overlays use it too: their
  // hypothetical retracts reach the shared closure through View().
  Status CloneInto(LooseDb* out) const;

  // Planner-cache observability (hit rate across this database's life).
  uint64_t planner_hits() const { return planner_.hits(); }
  uint64_t planner_misses() const { return planner_.misses(); }
  size_t planner_plan_count() const { return planner_.plan_count(); }

  // ---- Closure & integrity ----------------------------------------------

  // The queryable closure. After fact changes the cached closure is
  // maintained on clones of its tiers: delete and re-derive
  // (RuleEngine::RetractFromClosure) for the net retracts, then an
  // extension (RuleEngine::ExtendClosure) for the net asserts. It is
  // recomputed from scratch only after a rules change, a
  // class-relationship mark or unmark, a store mutation that bypassed
  // Assert/Retract, or under the naive strategy.
  StatusOr<const ClosureView*> View() const;
  // Stats of the last computed closure (null before the first View()).
  const ClosureStats* closure_stats() const;
  // The last computed closure, tiers included (null before the first
  // View(); current right after a successful View()). Differential tests
  // compare its tiers with a from-scratch RuleEngine::ComputeClosure.
  const Closure* closure() const { return closure_.get(); }

  // The covering relation of the closure's generalization order (Sec
  // 5.1), for probing. Kept while the generalization clock holds (see
  // the cache fields below), and clones may share the object. The
  // pointer stays valid until a later call rebuilds the lattice after a
  // mutation moved the clock, which never happens on a warmed epoch.
  StatusOr<const GeneralizationLattice*> Lattice() const;

  // Resident bytes of everything the database keeps per fact or per
  // name (experiment E9 observability; the shell's `stats` and the
  // server's STATS verb report the breakdown). Computes the closure
  // first if it is stale. The asserted facts are held once: the store's
  // index is the closure's base tier.
  struct StorageMemory {
    DeltaIndex::Memory base;      // the asserted facts (segments + overlay)
    DeltaIndex::Memory derived;   // derived tier, same shape
    size_t entity_bytes = 0;      // the entity table
    size_t pending_bytes = 0;     // the buffer of fact changes since the
                                  // closure was fixed
    size_t total() const {
      return base.total() + derived.total() + entity_bytes + pending_bytes;
    }
  };
  StatusOr<StorageMemory> MemoryUsage() const;

  // ---- Background compaction ---------------------------------------------
  // A serving tip extends its closure tiers across epochs (see View()),
  // so frozen segments and overlay facts accumulate; the background
  // compactor (store/compactor.h, driven by the serving layer) folds them
  // into one CSR generation per tier. The protocol is pin → build → swap:
  // BuildCompactionPlan reads an immutable, warmed epoch's tiers and
  // merges them off the commit path; InstallCompactedTiers, run inside a
  // later commit's mutation on the unpublished clone, validates that the
  // planned segments are still the tiers' prefix (shared_ptr identity —
  // they travel across epochs by pointer) and swaps the merged generation
  // in. A stale plan returns Aborted and the caller retries against the
  // current tip: a foreground tail-merge consumed a pinned segment
  // meanwhile, or an Erase (a retract, or an assert of a derived fact)
  // removed a fact the merged generation holds — possibly from the
  // overlay, which leaves the segment prefix intact, so the tier's erase
  // count is checked too. Compaction writes no WAL records: it is a
  // storage-layout change with no logical content, so it is a durability
  // no-op and shipped WAL bytes are unchanged for replication.
  struct TierPlan {
    // The segment prefix the merge was built from (empty = overlay-only
    // fold) and its single-segment replacement (null when the tier had
    // nothing to fold).
    std::vector<std::shared_ptr<const FrozenIndex>> old_segments;
    std::shared_ptr<const FrozenIndex> merged;
    // The tier's DeltaIndex::erase_count() at the pin.
    uint64_t erase_count = 0;
    bool trivial() const { return old_segments.empty() && merged == nullptr; }
  };
  struct CompactionPlan {
    TierPlan base;
    TierPlan derived;
    bool empty() const { return base.trivial() && derived.trivial(); }
  };
  StatusOr<CompactionPlan> BuildCompactionPlan() const;
  Status InstallCompactedTiers(const CompactionPlan& plan);
  // Bumped by every InstallCompactedTiers: lets the serving layer tell a
  // compaction-only commit (must publish) from a true no-op (skipped).
  uint64_t storage_generation() const { return storage_generation_; }

  // Sec 2.6: valid databases have contradiction-free closures.
  Status CheckIntegrity() const;
  StatusOr<std::vector<IntegrityViolation>> FindIntegrityViolations() const;

  // ---- Query -----------------------------------------------------------

  StatusOr<lsd::Query> Parse(std::string_view text);
  StatusOr<ResultSet> Run(const lsd::Query& query,
                          const EvalOptions& options = {}) const;
  StatusOr<ResultSet> Query(std::string_view text,
                            const EvalOptions& options = {});

  // The Sec 6.1 definition facility: named retrieval operators defined
  // in the standard query language.
  //   DefineOperator("author-of(?B, ?A) := (?B, AUTHOR, ?A)");
  //   Call("author-of(B-LOGIC, ?WHO)");
  Status DefineOperator(std::string_view text);
  StatusOr<ResultSet> Call(std::string_view call_text,
                           const EvalOptions& options = {});
  const DefinitionRegistry& definitions() const { return definitions_; }

  // ---- Browsing ----------------------------------------------------------
  // Browsing entry points take an optional borrowed QueryBudget; a
  // tripped budget aborts the operation with its typed error. Query/Run/
  // Probe carry theirs inside EvalOptions/ProbeOptions instead.

  // Navigation (Sec 4.1).
  StatusOr<NeighborhoodView> Navigate(
      std::string_view entity, const QueryBudget* budget = nullptr) const;
  // Direct facts and compositions (Sec 3.7) between two entities; a
  // composed relationship is spelled from its chain, never interned.
  StatusOr<std::vector<Association>> Associations(
      std::string_view source, std::string_view target,
      const QueryBudget* budget = nullptr) const;
  StatusOr<std::string> RenderAssociations(
      std::string_view source, std::string_view target,
      const QueryBudget* budget = nullptr) const;

  // Probing (Sec 5).
  StatusOr<ProbeResult> Probe(std::string_view query_text,
                              const ProbeOptions& options = {});
  StatusOr<ProbeResult> Probe(const lsd::Query& query,
                              const ProbeOptions& options = {}) const;

  // Semantic distance (Sec 6.1): shortest fact-chain length between two
  // entities within `max_radius`, or nullopt if unconnected.
  StatusOr<std::optional<int>> SemanticDistance(
      std::string_view a, std::string_view b, int max_radius = 4,
      const QueryBudget* budget = nullptr) const;
  // All entities within `radius` associations of `entity`.
  StatusOr<std::vector<NearbyEntity>> Nearby(
      std::string_view entity, int radius = 2,
      const QueryBudget* budget = nullptr) const;

  // Operators (Sec 6.1).
  StatusOr<std::string> Try(std::string_view entity) const;
  StatusOr<RelationTable> Relation(
      std::string_view klass,
      const std::vector<std::pair<std::string, std::string>>& columns)
      const;

  // ---- Persistence -------------------------------------------------------

  // Loads .lsd text (facts, rules, @class marks) into this database.
  // Facts and marks go through AssertAll, so a capturing commit logs
  // them.
  Status LoadText(std::string_view text);
  Status LoadTextFile(const std::string& path);

  // Exports a snapshot to <prefix>.snap (write, then atomic rename). It
  // attaches no log, so it refuses a prefix that already holds WAL
  // segments: recovery would replay them over the export. A durable
  // store checkpoints with SharedStore::Checkpoint instead.
  Status Save(const std::string& path_prefix) const;

  // Loads <prefix>.snap (if present) and replays the <prefix>.wal.NNNNNN
  // segments, salvaging any torn or corrupt suffix; what recovery found
  // is available via last_recovery(). Writes no log of its own:
  // SharedStore::OpenDurable recovers its bootstrap epoch this way and
  // then owns the log. Operator definitions (Sec 6.1) are not persisted
  // — keep them in a .lsd file loaded at startup.
  Status Recover(const std::string& path_prefix);

  // What the last Recover() found (zeroed if never recovered).
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // Group-commit capture: while `sink` is non-null, every WAL-shaped
  // mutation record (assert/retract/rule/include/exclude) is pushed
  // onto `sink`. The serving layer sets a sink on commit clones, then
  // batch-appends the whole commit group's records to its own WAL under
  // one fsync. Callers must clear the sink (set nullptr) before the
  // vector goes out of scope.
  void set_mutation_capture(std::vector<WalRecord>* sink) {
    capture_ = sink;
  }

  // Governs the lazy closure recompute inside View(): while set, a
  // rebuild runs under `budget` and a trip makes View() fail with the
  // budget's typed error (the stale closure cache is left untouched and
  // the next View() simply retries). ONLY safe on a database owned by a
  // single thread — the serving layer sets it on session-private overlay
  // clones, never on shared epochs (whose closures are Warm()ed before
  // publish and thus never recompute under readers).
  void set_read_budget(const QueryBudget* budget) { read_budget_ = budget; }
  const QueryBudget* read_budget() const { return read_budget_; }

 private:
  EntityId MustLookup(std::string_view name, Status* status) const;
  // Adds `rules` (parsed from .lsd text) and asserts `facts`.
  Status AddLoaded(std::vector<Rule> rules, const std::vector<Fact>& facts);

  LooseDbOptions options_;
  FactStore store_;
  DefinitionRegistry definitions_;
  std::vector<Rule> rules_;
  uint64_t rules_version_ = 0;
  int composition_limit_;

  MathProvider math_;
  RuleEngine engine_;
  std::vector<WalRecord>* capture_ = nullptr;  // group-commit sink
  RecoveryStats last_recovery_;
  const QueryBudget* read_budget_ = nullptr;  // governs View() rebuilds

  // Closure cache, keyed by (store version, rules version).
  mutable std::unique_ptr<Closure> closure_;
  mutable uint64_t closure_store_version_ = 0;
  mutable uint64_t closure_rules_version_ = 0;

  // The facts asserted or retracted since the cached closure was fixed:
  // one entry per Assert/Retract that changed the store. View()
  // maintains the cached closure by their net effect instead of
  // recomputing, provided the version arithmetic proves the list is
  // complete: every store-version bump since the closure was keyed must
  // correspond to one entry (a mutation that bypasses Assert/Retract,
  // such as Recover, bumps the version without growing the list and
  // thus forces the full recompute). A class-relationship mark or unmark
  // changes which old facts pass the rules' VarConstraints, so it sets
  // closure_recompute_ instead.
  mutable std::vector<Fact> closure_changes_;
  mutable bool closure_recompute_ = false;
  // Bumped by InstallCompactedTiers (storage layout changed with no
  // logical change); copied by CloneInto.
  uint64_t storage_generation_ = 0;

  // Generalization lattice cache, keyed on the generalization clock,
  // which moves whenever the closure's ISA facts may have changed: on
  // every full recompute (rules changes included), on every maintenance
  // run that erases an ISA fact from either tier, and on one that
  // changes the tiers' ISA count. Without an ISA erase, maintenance only
  // adds ISA facts, so an unchanged count proves an unchanged ISA slice
  // and keeps the clock; commits and retracts of non-ISA facts therefore
  // reuse the lattice. The clock is advanced where the closure changes
  // (View), never per probe. The lattice is immutable and shared by
  // CloneInto.
  mutable uint64_t generalization_clock_ = 0;
  mutable size_t closure_isa_facts_ = 0;  // ISA facts in closure_'s tiers
  mutable std::shared_ptr<const GeneralizationLattice> lattice_;
  mutable uint64_t lattice_clock_ = 0;

  // Query-plan cache shared by Run/Probe, valid for one closure
  // snapshot (same keying). Internally synchronized.
  mutable PlannerCache planner_;
  mutable uint64_t planner_store_version_ = 0;
  mutable uint64_t planner_rules_version_ = 0;

  // The plan cache for the current (store, rules) snapshot, cleared on
  // version mismatch.
  PlannerCache* Planner() const;
  // Records one store change for View()'s closure maintenance.
  void NoteChange(const Fact& f);
  // Whether View() can fold the recorded fact changes into the cached
  // closure instead of recomputing it.
  bool Maintainable() const;
  // The facts of `facts` that would change the store (absent ones for an
  // assert, present ones for a retract), SRT-sorted and duplicate-free.
  // Logs each once in the caller's order, as one-by-one calls would
  // (recovery interns names in log order), and notes it for View().
  std::vector<Fact> TakeChanges(const std::vector<Fact>& facts,
                                bool retract);
};

}  // namespace lsd

#endif  // LSD_CORE_LOOSE_DB_H_
