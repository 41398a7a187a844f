#include "core/loose_db.h"

#include <algorithm>

#include "rules/builtin_rules.h"
#include "store/text_format.h"
#include "util/failpoint.h"

namespace lsd {

LooseDb::LooseDb(const LooseDbOptions& options)
    : options_(options),
      composition_limit_(options.composition_limit),
      math_(&store_),
      engine_(&store_, &math_) {
  if (options_.standard_rules) {
    for (const Fact& f : StandardSeedFacts()) store_.Assert(f);
    for (Rule& r : StandardRules()) rules_.push_back(std::move(r));
    ++rules_version_;
  }
}

void LooseDb::NoteChange(const Fact& f) {
  if (f.relationship == kEntIn && f.target == kEntClassRel) {
    // Marking or unmarking a class relationship changes which old facts
    // pass the rules' VarConstraints, so the closure is not merely
    // maintained by this fact — force the full recompute.
    closure_recompute_ = true;
  } else if (closure_ != nullptr && !closure_recompute_) {
    closure_changes_.push_back(f);
  }
}

Fact LooseDb::Assert(std::string_view source, std::string_view relationship,
                     std::string_view target) {
  Fact f = store_.entities().InternFact(source, relationship, target);
  Assert(f);
  return f;
}

bool LooseDb::Assert(const Fact& f) { return AssertAll({f}) != 0; }

std::vector<Fact> LooseDb::TakeChanges(const std::vector<Fact>& facts,
                                       bool retract) {
  std::vector<Fact> run = facts;
  std::sort(run.begin(), run.end(), OrderSrt());
  run.erase(std::unique(run.begin(), run.end()), run.end());
  run.erase(std::remove_if(run.begin(), run.end(),
                           [this, retract](const Fact& f) {
                             return store_.Contains(f) != retract;
                           }),
            run.end());
  if (capture_ != nullptr) {
    std::vector<bool> logged(run.size(), false);
    for (const Fact& f : facts) {
      const size_t i = static_cast<size_t>(
          std::lower_bound(run.begin(), run.end(), f, OrderSrt()) -
          run.begin());
      if (i == run.size() || run[i] != f || logged[i]) continue;
      logged[i] = true;
      capture_->push_back(WalFactRecord(
          retract ? WalOpCode::kRetract : WalOpCode::kAssert,
          store_.entities(), f));
    }
  }
  for (const Fact& f : run) NoteChange(f);
  return run;
}

size_t LooseDb::AssertAll(const std::vector<Fact>& facts) {
  return store_.AssertRun(TakeChanges(facts, /*retract=*/false));
}

bool LooseDb::Retract(const Fact& f) { return RetractAll({f}) != 0; }

size_t LooseDb::RetractAll(const std::vector<Fact>& facts) {
  return store_.RetractRun(TakeChanges(facts, /*retract=*/true));
}

EntityId LooseDb::MustLookup(std::string_view name, Status* status) const {
  auto id = store_.entities().Lookup(name);
  if (!id.has_value()) {
    *status = Status::NotFound("unknown entity: " + std::string(name));
    return kAnyEntity;
  }
  return *id;
}

Status LooseDb::Retract(std::string_view source,
                        std::string_view relationship,
                        std::string_view target) {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId r = MustLookup(relationship, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  if (!Retract(Fact(s, r, t))) {
    return Status::NotFound("fact not asserted");
  }
  return Status::OK();
}

StatusOr<LooseDb::Tally> LooseDb::Apply(
    const std::vector<WalRecord>& records) {
  Tally tally;
  std::vector<Fact> run;
  bool run_retracts = false;
  auto flush = [&] {
    if (run_retracts) {
      const size_t n = RetractAll(run);
      tally.removed += n;
      tally.missing += run.size() - n;
    } else {
      const size_t n = AssertAll(run);
      tally.added += n;
      tally.present += run.size() - n;
    }
    run.clear();
  };
  for (const WalRecord& record : records) {
    const auto op = static_cast<WalOpCode>(record.op);
    const std::vector<std::string>& fields = record.fields;
    const bool retract = op == WalOpCode::kRetract;
    if ((retract || op == WalOpCode::kAssert) && fields.size() == 3) {
      if (retract != run_retracts) {
        flush();
        run_retracts = retract;
      }
      if (!retract) {
        run.push_back(
            store_.entities().InternFact(fields[0], fields[1], fields[2]));
      } else if (auto f = store_.entities().LookupFact(fields[0], fields[1],
                                                       fields[2])) {
        run.push_back(*f);
      } else {
        ++tally.missing;
      }
      continue;
    }
    flush();
    Status s;
    if (op == WalOpCode::kRule && fields.size() == 1) {
      auto rule = ParseSerializedRule(fields[0], &store_.entities());
      s = rule.ok() ? AddRule(std::move(rule).value()) : rule.status();
      if (s.code() == StatusCode::kAlreadyExists) s = Status::OK();
    } else if ((op == WalOpCode::kEnableRule ||
                op == WalOpCode::kDisableRule) &&
               fields.size() == 1) {
      s = SetRuleEnabled(fields[0], op == WalOpCode::kEnableRule);
      if (s.IsNotFound()) s = Status::OK();
    } else {
      s = Status::DataLoss("malformed mutation record (opcode " +
                           std::to_string(record.op) + ", " +
                           std::to_string(fields.size()) + " fields)");
    }
    LSD_RETURN_IF_ERROR(s);
  }
  flush();
  return tally;
}

void LooseDb::MarkClassRelationship(std::string_view relationship) {
  Assert(Fact(store_.entities().Intern(relationship), kEntIn, kEntClassRel));
}

Status LooseDb::DefineRule(std::string_view text, RuleKind kind) {
  LSD_ASSIGN_OR_RETURN(Rule rule,
                       ParseRuleLine(text, kind, &store_.entities()));
  return AddRule(std::move(rule));
}

Status LooseDb::AddRule(Rule rule) {
  LSD_RETURN_IF_ERROR(rule.Validate());
  for (const Rule& r : rules_) {
    if (r.name == rule.name) {
      return Status::AlreadyExists("rule '" + rule.name +
                                   "' already defined");
    }
  }
  if (capture_ != nullptr) {
    capture_->push_back(WalRuleRecord(rule, store_.entities()));
  }
  rules_.push_back(std::move(rule));
  ++rules_version_;
  store_.ReleaseUniverse();  // its constants may be new names
  return Status::OK();
}

Status LooseDb::SetRuleEnabled(std::string_view name, bool enabled) {
  for (Rule& r : rules_) {
    if (r.name == name) {
      if (r.enabled != enabled) {
        r.enabled = enabled;
        ++rules_version_;
        if (capture_ != nullptr) {
          capture_->push_back(WalRuleEnabledRecord(r.name, enabled));
        }
      }
      return Status::OK();
    }
  }
  return Status::NotFound("no rule named '" + std::string(name) + "'");
}

bool LooseDb::IsRuleEnabled(std::string_view name) const {
  for (const Rule& r : rules_) {
    if (r.name == name) return r.enabled;
  }
  return false;
}

StatusOr<const ClosureView*> LooseDb::View() const {
  if (closure_ != nullptr && closure_store_version_ == store_.version() &&
      closure_rules_version_ == rules_version_) {
    return &closure_->view();
  }
  ClosureOptions closure_options = options_.closure;
  if (closure_options.budget == nullptr) {
    closure_options.budget = read_budget_;
  }
  // Maintenance (the serving path's common case): when the only change
  // since the cached closure is the recorded list of fact changes, fold
  // their net effect into clones of the cached tiers — delete and
  // re-derive for the retracts, then an extension by the asserts —
  // instead of recomputing from scratch. The version arithmetic proves
  // the list complete; mutations that bypass Assert/Retract bump the
  // version without growing it and fail the check. The work runs on
  // clones, so a failed run (a tripped read budget) leaves `closure_`
  // and the list intact and the next View() retries.
  const bool maintain = Maintainable();
  bool isa_erased = false;
  if (maintain) {
    // Every recorded change flips its fact's membership, so a fact
    // changed an odd number of times is retracted if the closure's base
    // tier holds it and asserted if not, and an even count cancels out.
    // Sorting in place keeps the list whole if this run fails.
    std::vector<Fact>& changes = closure_changes_;
    std::sort(changes.begin(), changes.end(), OrderSrt());
    std::vector<Fact> retracted;
    std::vector<Fact> asserted;
    asserted.reserve(changes.size());  // a bulk load is all asserts
    for (size_t i = 0, j = 0; i < changes.size(); i = j) {
      while (j < changes.size() && changes[j] == changes[i]) ++j;
      if ((j - i) % 2 == 0) continue;
      (closure_->base().Contains(changes[i]) ? retracted : asserted)
          .push_back(changes[i]);
    }
    // The store's index already holds the changes and becomes the new
    // base tier; the old one (the cached closure's) is what DRed's
    // over-delete reads.
    std::shared_ptr<const DeltaIndex> base = store_.shared_base();
    DeltaIndex derived = closure_->derived().Clone();
    ClosureStats stats = closure_->stats();
    if (!retracted.empty()) {
      std::vector<Fact> erased;
      LSD_RETURN_IF_ERROR(engine_.RetractFromClosure(
          rules_, retracted, closure_->base(), *base, &derived, &stats,
          &erased, closure_options));
      for (const Fact& f : erased) {
        isa_erased = isa_erased || f.relationship == kEntIsa;
      }
    }
    LSD_ASSIGN_OR_RETURN(
        closure_, engine_.ExtendClosure(rules_, std::move(base),
                                        std::move(derived), stats,
                                        std::move(asserted), closure_options));
  } else {
    LSD_ASSIGN_OR_RETURN(closure_,
                         engine_.ComputeClosure(rules_, closure_options));
  }
  // The generalization clock: a recompute may change any ISA fact, and
  // so may maintenance that erased one; otherwise maintenance only added
  // facts, so an equal ISA count means an equal ISA slice and the
  // lattice stays exact.
  const Pattern isa(kAnyEntity, kEntIsa, kAnyEntity);
  const size_t isa_facts = closure_->base().CountMatches(isa) +
                           closure_->derived().CountMatches(isa);
  if (!maintain || isa_erased || isa_facts != closure_isa_facts_) {
    ++generalization_clock_;
    closure_isa_facts_ = isa_facts;
  }
  closure_store_version_ = store_.version();
  closure_rules_version_ = rules_version_;
  closure_changes_.clear();
  closure_recompute_ = false;
  return &closure_->view();
}

const ClosureStats* LooseDb::closure_stats() const {
  return closure_ == nullptr ? nullptr : &closure_->stats();
}

StatusOr<LooseDb::StorageMemory> LooseDb::MemoryUsage() const {
  LSD_RETURN_IF_ERROR(View().status());
  StorageMemory mem;
  mem.base = closure_->base().MemoryUsage();
  mem.derived = closure_->derived().MemoryUsage();
  mem.entity_bytes = store_.entities().MemoryUsage();
  mem.pending_bytes = closure_changes_.capacity() * sizeof(Fact);
  return mem;
}

StatusOr<const GeneralizationLattice*> LooseDb::Lattice() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  if (lattice_ == nullptr || lattice_clock_ != generalization_clock_) {
    lattice_ = std::make_shared<const GeneralizationLattice>(
        GeneralizationLattice::Build(*view));
    lattice_clock_ = generalization_clock_;
  }
  return lattice_.get();
}

PlannerCache* LooseDb::Planner() const {
  if (planner_store_version_ != store_.version() ||
      planner_rules_version_ != rules_version_) {
    planner_.Clear();
    planner_store_version_ = store_.version();
    planner_rules_version_ = rules_version_;
  }
  return &planner_;
}

bool LooseDb::Maintainable() const {
  return closure_ != nullptr && !closure_recompute_ &&
         closure_rules_version_ == rules_version_ &&
         store_.version() ==
             closure_store_version_ + closure_changes_.size() &&
         options_.closure.strategy == ClosureOptions::Strategy::kSemiNaive;
}

Status LooseDb::Warm() {
  // A closure run that reads the whole store — a full recompute, or
  // maintenance by a change at least half the store's size (a bulk
  // load) — probes the base tier throughout its fixpoint, so it gets the
  // store's index as one segment (a bulk load leaves segments plus an
  // overlay of single asserts, which every probe also searches). Smaller
  // changes read only their neighbourhood and keep the layout, so a
  // commit's cost stays the size of its change.
  const bool current = closure_ != nullptr &&
                       closure_store_version_ == store_.version() &&
                       closure_rules_version_ == rules_version_;
  if (!current && (!Maintainable() ||
                   closure_changes_.size() * 2 >= store_.size())) {
    store_.Compact();
  }
  LSD_RETURN_IF_ERROR(View().status());
  LSD_RETURN_IF_ERROR(Lattice().status());
  Planner();  // aligns the planner's version key with the snapshot
  store_.FixUniverse();
  return Status::OK();
}

Status LooseDb::CloneInto(LooseDb* out) const {
  if (out->store_.size() != 0 ||
      out->store_.entities().size() != kNumBuiltinEntities ||
      !out->rules_.empty()) {
    return Status::FailedPrecondition(
        "CloneInto requires a fresh LooseDb with standard_rules = false");
  }
  // The entity table and the fact index are shared, not copied (the
  // clone's first fact change copies the index); the version clocks
  // travel with them, so any later mutation moves the clone off the
  // source's key pair and the commit path cannot mistake it for a no-op.
  out->store_.ShareFrom(store_);
  out->rules_ = rules_;
  out->rules_version_ = rules_version_;
  out->composition_limit_ = composition_limit_;
  for (const Definition& d : definitions_.all()) {
    Definition copy;
    copy.name = d.name;
    copy.params = d.params;
    copy.body = d.body.Clone();
    LSD_RETURN_IF_ERROR(out->definitions_.Add(std::move(copy)));
  }
  out->storage_generation_ = storage_generation_;
  // Share the closure's tiers when it is current, so the commit path
  // inherits the seed closure instead of recomputing it — View() on the
  // clone then extends it with just the commit's new facts (or deletes
  // and re-derives for its retracts). The lattice and its clock travel
  // with it, so the clone's Warm() rebuilds the lattice only if that
  // maintenance changes an ISA fact. Skipped when the closure is stale
  // (the clone would inherit a wrong cache).
  if (closure_ != nullptr && closure_store_version_ == store_.version() &&
      closure_rules_version_ == rules_version_) {
    out->closure_ = std::make_unique<Closure>(
        &out->store_, &out->math_, closure_->shared_base(),
        closure_->shared_derived(), closure_->stats());
    out->closure_store_version_ = out->store_.version();
    out->closure_rules_version_ = out->rules_version_;
    out->closure_changes_.clear();
    out->closure_recompute_ = false;
    out->generalization_clock_ = generalization_clock_;
    out->closure_isa_facts_ = closure_isa_facts_;
    out->lattice_ = lattice_;
    out->lattice_clock_ = lattice_clock_;
  }
  return Status::OK();
}

StatusOr<LooseDb::CompactionPlan> LooseDb::BuildCompactionPlan() const {
  LSD_RETURN_IF_ERROR(View().status());
  CompactionPlan plan;
  auto build = [](const DeltaIndex& tier, TierPlan* tp) {
    // One segment and no overlay is already fully compacted.
    if (tier.segment_count() <= 1 && tier.overlay_size() == 0) return;
    tp->old_segments = tier.segments();
    tp->erase_count = tier.erase_count();
    FrozenIndex merged = tier.BuildMerged();
    if (merged.size() != 0) {
      tp->merged =
          std::make_shared<const FrozenIndex>(std::move(merged));
    }
  };
  build(closure_->base(), &plan.base);
  build(closure_->derived(), &plan.derived);
  return plan;
}

Status LooseDb::InstallCompactedTiers(const CompactionPlan& plan) {
  if (plan.empty()) return Status::OK();
  LSD_RETURN_IF_ERROR(View().status());
  // Validate both tiers before mutating either, so a stale plan aborts
  // with the closure fully intact — the swap below can then no longer
  // fail halfway.
  auto prefix_current = [](const TierPlan& tp, const DeltaIndex& tier) {
    if (tp.trivial()) return true;
    if (tier.erase_count() != tp.erase_count) return false;
    const auto& segs = tier.segments();
    if (tp.old_segments.size() > segs.size()) return false;
    for (size_t i = 0; i < tp.old_segments.size(); ++i) {
      if (segs[i].get() != tp.old_segments[i].get()) return false;
    }
    return true;
  };
  if (!prefix_current(plan.base, closure_->base()) ||
      !prefix_current(plan.derived, closure_->derived())) {
    return Status::Aborted(
        "compaction plan is stale: tier generations changed since the pin");
  }
  // The tiers are shared with published epochs: the swap rewrites
  // copies (segment pointers and overlay), and the store adopts the new
  // base tier, whose facts are its own.
  auto swapped = [](const TierPlan& tp,
                    const std::shared_ptr<const DeltaIndex>& tier)
      -> std::shared_ptr<const DeltaIndex> {
    if (tp.trivial()) return tier;
    DeltaIndex copy = tier->Clone();
    if (!copy.SwapMergedPrefix(tp.old_segments, tp.merged)) return nullptr;
    return std::make_shared<const DeltaIndex>(std::move(copy));
  };
  std::shared_ptr<const DeltaIndex> base =
      swapped(plan.base, closure_->shared_base());
  // Crash window between the two tier swaps: this runs on an unpublished
  // commit clone and writes no WAL records, so recovery (crash-torture's
  // compact.swap trials) must never see the half-swapped state.
  LSD_FAILPOINT(compact.swap);
  std::shared_ptr<const DeltaIndex> derived =
      swapped(plan.derived, closure_->shared_derived());
  if (base == nullptr || derived == nullptr) {
    return Status::Internal("compaction swap failed after validation");
  }
  store_.ReplaceBase(base);
  closure_ = std::make_unique<Closure>(&store_, &math_, std::move(base),
                                       std::move(derived), closure_->stats());
  ++storage_generation_;
  return Status::OK();
}

Status LooseDb::CheckIntegrity() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return lsd::CheckIntegrity(*view);
}

StatusOr<std::vector<IntegrityViolation>>
LooseDb::FindIntegrityViolations() const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return FindViolations(*view);
}

StatusOr<lsd::Query> LooseDb::Parse(std::string_view text) {
  return ParseQuery(text, &store_.entities());
}

StatusOr<ResultSet> LooseDb::Run(const lsd::Query& query,
                                 const EvalOptions& options) const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Evaluator evaluator(view, &store_.entities(), store_.universe());
  EvalOptions effective = options;
  if (effective.planner == nullptr) effective.planner = Planner();
  return evaluator.Evaluate(query, effective);
}

StatusOr<ResultSet> LooseDb::Query(std::string_view text,
                                   const EvalOptions& options) {
  LSD_ASSIGN_OR_RETURN(lsd::Query query, Parse(text));
  return Run(query, options);
}

Status LooseDb::DefineOperator(std::string_view text) {
  return definitions_.Define(text, &store_.entities());
}

StatusOr<ResultSet> LooseDb::Call(std::string_view call_text,
                                  const EvalOptions& options) {
  LSD_ASSIGN_OR_RETURN(
      lsd::Query query,
      definitions_.ParseCall(call_text, &store_.entities()));
  return Run(query, options);
}

StatusOr<NeighborhoodView> LooseDb::Navigate(std::string_view entity,
                                             const QueryBudget* budget) const {
  auto id = store_.entities().Lookup(entity);
  if (!id.has_value()) {
    return Status::NotFound("unknown entity: " + std::string(entity));
  }
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, &store_.entities());
  return navigator.Neighborhood(*id, budget);
}

StatusOr<std::vector<Association>> LooseDb::Associations(
    std::string_view source, std::string_view target,
    const QueryBudget* budget) const {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, &store_.entities());
  CompositionOptions options;
  options.limit = composition_limit_;
  options.budget = budget;
  return navigator.Associations(s, t, options);
}

StatusOr<std::string> LooseDb::RenderAssociations(
    std::string_view source, std::string_view target,
    const QueryBudget* budget) const {
  Status status;
  EntityId s = MustLookup(source, &status);
  EntityId t = MustLookup(target, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(std::vector<Association> assocs,
                       Associations(source, target, budget));
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  Navigator navigator(view, &store_.entities());
  return navigator.RenderAssociations(s, t, assocs);
}

StatusOr<ProbeResult> LooseDb::Probe(std::string_view query_text,
                                     const ProbeOptions& options) {
  LSD_ASSIGN_OR_RETURN(lsd::Query query, Parse(query_text));
  return Probe(query, options);
}

StatusOr<ProbeResult> LooseDb::Probe(const lsd::Query& query,
                                     const ProbeOptions& options) const {
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  LSD_ASSIGN_OR_RETURN(const GeneralizationLattice* lattice, Lattice());
  Prober prober(view, lattice, &store_.entities(), Planner());
  return prober.Probe(query, options);
}

StatusOr<std::optional<int>> LooseDb::SemanticDistance(
    std::string_view a, std::string_view b, int max_radius,
    const QueryBudget* budget) const {
  Status status;
  EntityId ea = MustLookup(a, &status);
  EntityId eb = MustLookup(b, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  ProximityOptions options;
  options.budget = budget;
  return lsd::SemanticDistance(*view, ea, eb, max_radius, options);
}

StatusOr<std::vector<NearbyEntity>> LooseDb::Nearby(
    std::string_view entity, int radius, const QueryBudget* budget) const {
  Status status;
  EntityId e = MustLookup(entity, &status);
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  ProximityOptions options;
  options.budget = budget;
  return lsd::Nearby(*view, e, radius, options);
}

StatusOr<std::string> LooseDb::Try(std::string_view entity) const {
  auto id = store_.entities().Lookup(entity);
  if (!id.has_value()) {
    return Status::NotFound("unknown entity: " + std::string(entity));
  }
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return RenderTry(*view, *id);
}

StatusOr<RelationTable> LooseDb::Relation(
    std::string_view klass,
    const std::vector<std::pair<std::string, std::string>>& columns) const {
  Status status;
  EntityId k = MustLookup(klass, &status);
  std::vector<RelationColumnSpec> specs;
  for (const auto& [rel, target_class] : columns) {
    RelationColumnSpec spec;
    spec.relationship = MustLookup(rel, &status);
    spec.target_class = MustLookup(target_class, &status);
    specs.push_back(spec);
  }
  if (!status.ok()) return status;
  LSD_ASSIGN_OR_RETURN(const ClosureView* view, View());
  return RelationOp(*view, k, std::move(specs));
}

Status LooseDb::LoadText(std::string_view text) {
  std::vector<Rule> rules;
  std::vector<Fact> facts;
  LSD_RETURN_IF_ERROR(
      ParseText(text, &store_.entities(), &facts, &rules, &definitions_));
  return AddLoaded(std::move(rules), facts);
}

Status LooseDb::LoadTextFile(const std::string& path) {
  std::vector<Rule> rules;
  std::vector<Fact> facts;
  LSD_RETURN_IF_ERROR(lsd::LoadTextFile(path, &store_.entities(), &facts,
                                        &rules, &definitions_));
  return AddLoaded(std::move(rules), facts);
}

Status LooseDb::AddLoaded(std::vector<Rule> rules,
                          const std::vector<Fact>& facts) {
  AssertAll(facts);
  for (Rule& r : rules) {
    LSD_RETURN_IF_ERROR(AddRule(std::move(r)));
  }
  return Status::OK();
}

Status LooseDb::Save(const std::string& path_prefix) const {
  if (!Wal::Inventory(path_prefix + ".wal").empty()) {
    return Status::FailedPrecondition(
        path_prefix + " holds a write-ahead log; a snapshot saved there "
        "would have it replayed on top");
  }
  return SaveSnapshotAtomic(path_prefix + ".snap", store_, rules_);
}

Status LooseDb::Recover(const std::string& path_prefix) {
  if (store_.size() != StandardSeedFacts().size() &&
      store_.size() != 0) {
    return Status::FailedPrecondition(
        "Recover() requires a freshly constructed LooseDb");
  }
  last_recovery_ = RecoveryStats();
  uint64_t generation = 0;
  const std::string snap_path = path_prefix + ".snap";
  std::FILE* probe = std::fopen(snap_path.c_str(), "rb");
  if (probe != nullptr) {
    std::fclose(probe);
    // The snapshot contains the seed facts and the standard rules too:
    // load into clean containers.
    if (options_.standard_rules) {
      store_.RetractRun(StandardSeedFacts());
      rules_.clear();
      ++rules_version_;
    }
    LSD_RETURN_IF_ERROR(
        LoadSnapshot(snap_path, &store_, &rules_, &generation));
    ++rules_version_;
    last_recovery_.snapshot_loaded = true;
  }
  // Replay everything the snapshot does not already contain; segments
  // from generations before the snapshot are checkpoint leftovers.
  LSD_RETURN_IF_ERROR(Wal::Replay(path_prefix + ".wal", &store_, &rules_,
                                  &last_recovery_, generation));
  last_recovery_.generation = generation;
  ++rules_version_;
  return Status::OK();
}

}  // namespace lsd
