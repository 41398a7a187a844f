// ServerSession::Execute — the one command interpreter. The lsd_shell
// REPL and the lsd_serve wire protocol both hand it every line
// (assert/retract/rule/query/probe/nav/assoc/...), so a transcript
// behaves the same in either, including the session verbs:
//
//   hypo assert|retract (S,R,T)   session-local hypothetical mutation
//   hypo list | hypo clear        inspect / drop the overlay
//   session                       this session's state
//   stats                         shared-store + session statistics
//   checkpoint                    snapshot + fresh log generation
//   ping                          liveness probe
//
// Reads run against the session's pinned epoch (or its hypothetical
// overlay); writes go through SharedStore::Commit and become visible to
// all sessions at the next epoch.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "browse/dot_export.h"
#include "query/parser.h"
#include "query/table_formatter.h"
#include "replication/monitor.h"
#include "server/session.h"
#include "store/text_format.h"
#include "util/string_util.h"

namespace lsd {

namespace {

// Parses the ground templates "(S, R, T) ..." of a mutation verb into
// fact records of normalized names; a verb that is not batched takes
// exactly one. It interns nothing: the names reach the shared entity
// table only if an assert of them is applied.
StatusOr<std::vector<WalRecord>> MutationRecords(WalOpCode op,
                                                 std::string_view text,
                                                 bool batch) {
  auto facts = ParseFacts(text);
  if (!facts.ok() || (!batch && facts->size() != 1)) {
    return Status::InvalidArgument(
        "expected a ground template (S, R, T)" +
        (facts.ok() ? std::string() : ": " + facts.status().message()));
  }
  std::vector<WalRecord> records;
  for (const FactNames& f : *facts) {
    records.push_back({static_cast<uint8_t>(op),
                       {EntityTable::Normalize(f[0]),
                        EntityTable::Normalize(f[1]),
                        EntityTable::Normalize(f[2])}});
  }
  return records;
}

std::string RenderFact(const WalRecord& record) {
  return "(" + record.fields[0] + ", " + record.fields[1] + ", " +
         record.fields[2] + ")";
}

// Whether a fact record names only what the text verbs can spell: its
// "(S, R, T)" rendering parses back to the same normalized names. An
// empty name, a lone '*', a '?NAME' or a name holding '(', ')', ',' or
// a line break does not.
bool SpelledByTextVerbs(const WalRecord& record) {
  auto parsed = MutationRecords(static_cast<WalOpCode>(record.op),
                                RenderFact(record), /*batch=*/false);
  std::vector<std::string> names;
  for (const std::string& name : record.fields) {
    names.push_back(EntityTable::Normalize(name));
  }
  return parsed.ok() && (*parsed)[0].fields == names;
}

std::string RenderTally(const LooseDb::Tally& tally) {
  return "added " + std::to_string(tally.added) + ", present " +
         std::to_string(tally.present) + ", removed " +
         std::to_string(tally.removed) + ", missing " +
         std::to_string(tally.missing) + "\n";
}

std::string RenderProbe(const ProbeResult& probe,
                        const EntityTable& entities) {
  if (probe.original_succeeded) {
    return FormatResult(probe.original_result, entities);
  }
  std::string out = probe.Menu(entities);
  for (size_t i = 0; i < probe.successes.size(); ++i) {
    out += std::to_string(i + 1) + ") " +
           probe.successes[i].query.DebugString(entities) + "\n" +
           FormatResult(probe.successes[i].result, entities);
  }
  return out;
}

// The verbs that mutate the shared store; a read-only follower rejects
// them. (hypo stays allowed: the overlay is session-local and never
// reaches the commit path; limit/save likewise. A follower is never
// durable, so checkpoint fails there on its own.)
bool IsMutationVerb(const std::string& cmd) {
  return cmd == "assert" || cmd == "retract" || cmd == "assert*" ||
         cmd == "retract*" || cmd == "rule" || cmd == "integrity" ||
         cmd == "define" || cmd == "include" || cmd == "exclude" ||
         cmd == "load";
}

// The verbs that read the pinned epoch and therefore fall under the
// bounded-staleness contract on a follower. Control verbs (ping,
// session, stats, help, hypo, limit, save) stay answerable even when
// stale — they are how an operator diagnoses the staleness.
bool IsGatedReadVerb(const std::string& cmd) {
  return cmd == "query" || cmd == "call" || cmd == "probe" ||
         cmd == "nav" || cmd == "visit" || cmd == "back" ||
         cmd == "forward" || cmd == "assoc" || cmd == "try" ||
         cmd == "near" || cmd == "dist" || cmd == "relation" ||
         cmd == "dot" || cmd == "check" || cmd == "rules";
}

std::string Percent(uint64_t part, uint64_t whole) {
  if (whole == 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) /
                    static_cast<double>(whole));
  return buf;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a != 0 && b > UINT64_MAX / a) return UINT64_MAX;
  return a * b;
}

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return b > UINT64_MAX - a ? UINT64_MAX : a + b;
}

// Join-cost upper bound of a parsed formula against a closure, its
// names resolved to `ids`: per-atom candidate estimates, multiplied
// across conjunctions and summed across disjunctions (shared-variable
// selectivity is ignored — this is a shed heuristic, not a plan). A
// single bound probe prices at its handful of index hits; an unbound
// join saturates.
uint64_t EstimateFormula(const ClosureView& view, const AstNode* node,
                         const std::vector<EntityId>& ids) {
  switch (node->kind) {
    case NodeKind::kAtom: {
      EntityId bound[3];
      for (int i = 0; i < 3; ++i) {
        const Term& term = node->atom.at(i);
        bound[i] = term.is_entity() ? ids[term.entity()] : kAnyEntity;
      }
      return view.EstimateMatches(Pattern(bound[0], bound[1], bound[2]));
    }
    case NodeKind::kAnd: {
      uint64_t cost = 1;
      for (const auto& child : node->children) {
        cost = SaturatingMul(cost, EstimateFormula(view, child.get(), ids));
      }
      return cost;
    }
    case NodeKind::kOr: {
      uint64_t cost = 0;
      for (const auto& child : node->children) {
        cost = SaturatingAdd(cost, EstimateFormula(view, child.get(), ids));
      }
      return cost;
    }
    case NodeKind::kExists:
    case NodeKind::kForall:
      return EstimateFormula(view, node->children[0].get(), ids);
  }
  return 0;
}

// A walk verb's operands, one word each, as its price and its run read
// them: "assoc S T", "dist A B" (4 rings), "near E [RADIUS]" (2 if none).
struct WalkArgs {
  WalkArgs(const std::string& cmd, const std::string& rest) {
    std::istringstream args(rest);
    args >> a;
    if (cmd != "near") {
      args >> b;
    } else {
      radius = 2;
      args >> radius;
    }
  }
  std::string a, b;
  int radius = 4;
};

}  // namespace

// The shed-policy price of one request, in estimated candidate
// enumerations, computed against the shared snapshot (never the
// overlay — building the overlay can itself be the expensive part, and
// a pending rebuild is priced in explicitly). Verbs we can see inside
// (query/probe) are priced by the planner's per-atom estimates. The
// walks are priced by the facts they scan (an unknown start prices at
// zero: the verb fails on it): assoc S T scans S's out-facts and their
// targets' out-facts, out(S) + Σ out(m), then makes one bounded lookup
// per fact of that second hop; near and dist search `radius` rings
// around their start E, deg(E)^radius, as if all in reach had E's
// degree (a hub past the first ring is not priced). Navigation prices
// at the entity's degree; the other unbounded searches (check/dot/
// relation and operator calls) at one full closure scan; control verbs
// and point mutations at zero.
uint64_t ServerSession::EstimateCost(const std::string& cmd,
                                     const std::string& rest) {
  EpochPtr epoch = store_->snapshot();
  LooseDb& db = epoch->db();
  uint64_t cost = 0;
  if (overlay_size() > 0 &&
      (overlay_db_ == nullptr ||
       overlay_epoch_sequence_ != epoch->sequence() ||
       overlay_built_version_ != overlay_version_)) {
    // A stale overlay means this request starts with a clone of the
    // epoch's store and closure tiers, whatever the verb.
    cost = db.store().size();
  }
  auto view = db.View();
  if (!view.ok()) return cost;  // unwarmed epoch: price what we know
  const ClosureView& v = **view;
  if (cmd == "query" || cmd == "probe") {
    // Priced from the names alone: pricing interns nothing, so a shed
    // request leaves no name in the table every epoch shares.
    auto parsed = ParseQueryNames(rest);
    // A malformed query is cheap: Execute will reject it at parse time.
    if (!parsed.ok()) return cost;
    // An unknown name prices as unbound, an upper bound: its atom may
    // still match, as one comparing with a fresh number does.
    std::vector<EntityId> ids;
    for (const std::string& name : parsed->names) {
      ids.push_back(db.entities().Lookup(name).value_or(kAnyEntity));
    }
    return SaturatingAdd(cost, EstimateFormula(v, parsed->query.root(), ids));
  }
  // Facts naming `id` as source and/or target.
  auto degree = [&](EntityId id, bool out, bool in) -> uint64_t {
    return SaturatingAdd(
        out ? v.EstimateMatches(Pattern(id, kAnyEntity, kAnyEntity)) : 0,
        in ? v.EstimateMatches(Pattern(kAnyEntity, kAnyEntity, id)) : 0);
  };
  if (cmd == "assoc" || cmd == "near" || cmd == "dist") {
    const WalkArgs walk(cmd, rest);
    const auto a = db.entities().Lookup(walk.a);
    if (!a.has_value()) return cost;
    uint64_t fan = 1;
    if (cmd != "assoc") {
      // Saturating: a degree past 1 saturates within 64 rings.
      const uint64_t deg = degree(*a, true, true);
      for (int i = 0; i < std::min(walk.radius, 64); ++i) {
        fan = SaturatingMul(fan, deg);
      }
      return SaturatingAdd(cost, fan);
    }
    // The sum stops once it passes the shed threshold, which decides.
    fan = degree(*a, true, false);
    v.ForEach(Pattern(*a, kAnyEntity, kAnyEntity), [&](const Fact& f) {
      fan = SaturatingAdd(fan, degree(f.target, true, false));
      return fan <= governance_->shed_cost_threshold;
    });
    return SaturatingAdd(cost, fan);
  }
  if (cmd == "call" || cmd == "check" || cmd == "dot" || cmd == "relation") {
    return SaturatingAdd(cost, v.EstimateMatches(Pattern()));
  }
  if (cmd == "nav" || cmd == "visit" || cmd == "back" || cmd == "forward") {
    const std::string& entity =
        cmd == "nav" || cmd == "visit"
            ? rest
            : (trail_.empty() ? std::string() : trail_[trail_pos_]);
    const auto id = db.entities().Lookup(entity);
    if (!id.has_value()) return cost;
    return SaturatingAdd(cost, degree(*id, true, true));
  }
  return cost;
}

// The shared landing strip of every fact-mutation front end (the text
// assert/retract verbs, their batched assert*/retract* forms and the
// binary kMutation frame): the records go into ONE SharedStore commit
// slot, so they share their group's single clone + warm + WAL fsync +
// epoch, and LooseDb::Apply lands them. The closure only counts and
// mutates — it is re-invocation safe (group replay after another slot
// fails resets the tally).
StatusOr<LooseDb::Tally> ServerSession::CommitRecords(
    const std::vector<WalRecord>& records) {
  // Pre-enqueue cancellation point: abort here and nothing mutated;
  // past Commit() the slot is in its group and the cancel waits for
  // the ack (see the commit-path comment in Execute()).
  LSD_RETURN_IF_ERROR(CheckBudget());
  LooseDb::Tally tally;
  auto epoch = store_->Commit([&](LooseDb& db) -> Status {
    LSD_ASSIGN_OR_RETURN(tally, db.Apply(records));
    return Status::OK();
  });
  if (!epoch.ok()) return epoch.status();
  return tally;
}

StatusOr<std::string> ServerSession::ExecuteBatchMutation(
    std::string_view payload) {
  ++requests_;
  if (replication_ != nullptr) {
    return Status::FailedPrecondition(
        "read-only follower: mutations must go to the primary");
  }
  // The whole payload is checked before the slot enqueues, so a
  // malformed batch mutates nothing.
  WalRecordParser parser;
  parser.Feed(payload);
  std::vector<WalRecord> records;
  WalRecord record;
  for (;;) {
    const WalRecordParser::Result r = parser.Next(&record);
    if (r == WalRecordParser::Result::kNeedMore) break;
    if (r == WalRecordParser::Result::kError) {
      return Status::InvalidArgument("malformed mutation record " +
                                     std::to_string(records.size()) + ": " +
                                     parser.error());
    }
    const auto op = static_cast<WalOpCode>(record.op);
    if ((op != WalOpCode::kAssert && op != WalOpCode::kRetract) ||
        record.fields.size() != 3) {
      return Status::InvalidArgument(
          "mutation record " + std::to_string(records.size()) +
          " is not an assert or retract of three names");
    }
    if (!SpelledByTextVerbs(record)) {
      return Status::InvalidArgument(
          "mutation record " + std::to_string(records.size()) +
          " names an entity the text verbs cannot spell");
    }
    records.push_back(std::move(record));
  }
  if (parser.buffered() != 0) {
    return Status::InvalidArgument("mutation payload ends inside record " +
                                   std::to_string(records.size()));
  }
  if (records.empty()) return std::string("empty batch\n");
  LSD_ASSIGN_OR_RETURN(LooseDb::Tally tally, CommitRecords(records));
  return RenderTally(tally);
}

StatusOr<std::string> ServerSession::ExecuteHypo(std::string_view rest) {
  std::istringstream in{std::string(rest)};
  std::string sub;
  in >> sub;
  sub = AsciiToLower(sub);
  std::string arg;
  std::getline(in, arg);
  arg = std::string(StripWhitespace(arg));

  if (sub == "clear") {
    size_t n = overlay_size();
    hypo_retracts_.clear();
    hypo_asserts_.clear();
    ++overlay_version_;
    return "dropped " + std::to_string(n) + " hypothetical(s)\n";
  }
  if (sub == "list") {
    std::string out;
    for (const WalRecord& f : hypo_retracts_) {
      out += "retract " + RenderFact(f) + "\n";
    }
    for (const WalRecord& f : hypo_asserts_) {
      out += "assert " + RenderFact(f) + "\n";
    }
    if (out.empty()) out = "no hypotheticals\n";
    return out;
  }
  if (sub != "assert" && sub != "retract") {
    return Status::InvalidArgument(
        "usage: hypo assert|retract (S,R,T) | hypo list | hypo clear");
  }

  // A hypothetical retraction must name a fact the base epoch (not the
  // overlay) actually asserts.
  const bool retract = sub == "retract";
  LSD_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      MutationRecords(retract ? WalOpCode::kRetract : WalOpCode::kAssert,
                      arg, /*batch=*/false));
  WalRecord& named = records[0];
  if (retract) {
    EpochPtr epoch = store_->snapshot();
    const LooseDb& db = epoch->db();
    auto f = db.entities().LookupFact(named.fields[0], named.fields[1],
                                      named.fields[2]);
    if (!f.has_value() || !db.store().Contains(*f)) {
      return Status::NotFound("fact not asserted in the shared store");
    }
    hypo_retracts_.push_back(std::move(named));
  } else {
    hypo_asserts_.push_back(std::move(named));
  }
  ++overlay_version_;
  return std::string("hypothetical recorded (this session only)\n");
}

StatusOr<std::string> ServerSession::ExecuteVisit(
    const std::string& entity) {
  LSD_ASSIGN_OR_RETURN(PinnedDb pinned, Pin());
  auto id = pinned.db->entities().Lookup(entity);
  if (!id.has_value()) {
    return Status::NotFound("unknown entity: " + entity);
  }
  // Navigate before touching the trail: a cancelled visit must leave
  // the trail exactly as if it never ran.
  LSD_ASSIGN_OR_RETURN(NeighborhoodView hood,
                       pinned.db->Navigate(entity, budget_));
  trail_.resize(trail_.empty() ? 0 : trail_pos_ + 1);
  trail_.push_back(pinned.db->entities().Name(*id));
  trail_pos_ = trail_.size() - 1;
  return Breadcrumbs() + "\n" + hood.Render(pinned.db->entities());
}

StatusOr<std::string> ServerSession::ExecuteBackForward(bool back) {
  if (back && trail_pos_ == 0) {
    return Status::FailedPrecondition("nothing to go back to");
  }
  if (!back && (trail_.empty() || trail_pos_ + 1 >= trail_.size())) {
    return Status::FailedPrecondition("nothing to go forward to");
  }
  // Move the cursor only after the navigation succeeds: a cancelled
  // back/forward leaves the trail position exactly where it was.
  const size_t new_pos = trail_pos_ + (back ? -1 : 1);
  LSD_ASSIGN_OR_RETURN(PinnedDb pinned, Pin());
  LSD_ASSIGN_OR_RETURN(NeighborhoodView hood,
                       pinned.db->Navigate(trail_[new_pos], budget_));
  trail_pos_ = new_pos;
  return Breadcrumbs() + "\n" + hood.Render(pinned.db->entities());
}

StatusOr<std::string> ServerSession::RenderStats() {
  LSD_ASSIGN_OR_RETURN(PinnedDb pinned, Pin());
  LooseDb& db = *pinned.db;
  std::string out;
  out += "epoch:          " + std::to_string(pinned.epoch->sequence()) +
         (pinned.overlaid ? " (+session overlay)" : "") + "\n";
  out += "store version:  " + std::to_string(db.store_version()) + "\n";
  out += "rules version:  " + std::to_string(db.rules_version()) + "\n";
  out += "entities:       " + std::to_string(db.entities().size()) + "\n";
  out += "asserted facts: " + std::to_string(db.store().size()) + "\n";
  auto view = db.View();
  if (view.ok() && db.closure_stats() != nullptr) {
    out += "derived facts:  " +
           std::to_string(db.closure_stats()->derived_facts) + " (in " +
           std::to_string(db.closure_stats()->rounds) + " rounds)\n";
  }
  auto mem = db.MemoryUsage();
  if (mem.ok()) {
    out += "base tier:      " + std::to_string(mem->base.total()) +
           " bytes (frozen " + std::to_string(mem->base.frozen.total()) +
           " in " + std::to_string(mem->base.runs) + " segments, overlay " +
           std::to_string(mem->base.overlay_bytes) + ")\n";
    out += "derived tier:   " + std::to_string(mem->derived.total()) +
           " bytes (frozen " + std::to_string(mem->derived.frozen.total()) +
           " in " + std::to_string(mem->derived.runs) +
           " segments, overlay " +
           std::to_string(mem->derived.overlay_bytes) + ")\n";
    out += "entity table:   " + std::to_string(mem->entity_bytes) +
           " bytes\n";
    out += "change buffer:  " + std::to_string(mem->pending_bytes) +
           " bytes\n";
  }
  out += "rules:          " + std::to_string(db.rules().size()) + "\n";
  const uint64_t hits = db.planner_hits();
  const uint64_t misses = db.planner_misses();
  out += "planner cache:  " + std::to_string(db.planner_plan_count()) +
         " plans, " + std::to_string(hits) + " hits / " +
         std::to_string(misses) + " misses (" +
         Percent(hits, hits + misses) + " hit rate)\n";
  out += "commits:        " + std::to_string(store_->commits()) + "\n";
  const GroupCommitStats gc = store_->group_stats();
  {
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.2f", gc.mean_group());
    out += "group commit:   " + std::to_string(gc.groups) +
           " groups, mean size " + mean + ", max " +
           std::to_string(gc.max_group) + ", queue depth " +
           std::to_string(gc.queue_depth) + "\n";
    out += "commit slots:   " + std::to_string(gc.slots_acked) +
           " acked / " + std::to_string(gc.slots_rejected) +
           " rejected\n";
  }
  if (store_->durable()) {
    out += "wal:            " + std::to_string(gc.wal_records) +
           " records in " + std::to_string(gc.wal_batches) +
           " batches, " + std::to_string(gc.fsyncs) + " fsyncs (" +
           std::to_string(gc.slots_acked) + " writes acked; gen " +
           std::to_string(store_->wal().durable_position().generation) +
           ", " + std::to_string(store_->wal().generation_bytes()) +
           " bytes since checkpoint)\n";
    const Status wal_status = store_->wal_status();
    if (!wal_status.ok()) {
      out += "wal status:     DEGRADED: " + wal_status.ToString() + "\n";
    }
    // The on-disk segment inventory: what a crash would recover from,
    // and what a replication subscriber can still resume from.
    const std::vector<WalSegmentInfo> segments =
        store_->wal().SegmentInventory();
    uint64_t total = 0;
    for (const WalSegmentInfo& seg : segments) total += seg.bytes;
    out += "wal segments:   " + std::to_string(segments.size()) +
           " live, " + std::to_string(total) + " bytes on disk\n";
    for (const WalSegmentInfo& seg : segments) {
      char seq[16];
      std::snprintf(seq, sizeof(seq), "%06llu",
                    static_cast<unsigned long long>(seg.seq));
      out += std::string("  seg ") + seq + "    gen " +
             std::to_string(seg.generation) + ", " +
             std::to_string(seg.bytes) + " bytes (" + seg.path + ")\n";
    }
  }
  if (store_->compaction_enabled()) {
    const CompactionStats cs = store_->compaction_stats();
    out += std::string("compaction:     ") +
           (cs.merging ? "merging" : (cs.running ? "idle" : "stopped")) +
           ", " + std::to_string(cs.merges) + " merges (" +
           std::to_string(cs.aborted) + " aborted, " +
           std::to_string(cs.failures) + " failed)\n";
    out += "  generations:  " + std::to_string(cs.shape.runs) +
           " runs pending, frozen " +
           std::to_string(cs.shape.frozen_bytes) + " bytes, overlay " +
           std::to_string(cs.shape.overlay_bytes) + " bytes\n";
    out += "  merged:       " + std::to_string(cs.facts_merged) +
           " facts / " + std::to_string(cs.bytes_merged) +
           " bytes, last merge " + std::to_string(cs.last_merge_ms) +
           " ms, backpressure hits " +
           std::to_string(cs.backpressure_hits) + "\n";
  }
  if (replication_ != nullptr) {
    const ReplicationStatus rs = replication_->Sample();
    const ReplicationBounds& rb = replication_->bounds();
    out += std::string("replication:    follower, ") +
           (rs.connected ? "connected" : "disconnected") +
           (rs.ever_synced ? "" : ", never synced") + "\n";
    out += "repl lag:       " + std::to_string(rs.lag_ms) + " ms / " +
           std::to_string(rs.lag_bytes) + " bytes (bound " +
           (rb.max_lag_ms == 0 ? std::string("inf")
                               : std::to_string(rb.max_lag_ms)) +
           " ms / " +
           (rb.max_lag_bytes == 0 ? std::string("inf")
                                  : std::to_string(rb.max_lag_bytes)) +
           " bytes, silence " + std::to_string(rs.silence_ms) + " ms)\n";
    out += "repl epochs:    applied " + std::to_string(rs.applied_epoch) +
           " / primary " + std::to_string(rs.primary_epoch) + "\n";
    out += "repl position:  " + rs.applied_pos.ToString() + ", " +
           std::to_string(rs.chunks_applied) + " chunks, " +
           std::to_string(rs.records_applied) + " records, " +
           std::to_string(rs.snapshots_loaded) + " snapshots, " +
           std::to_string(rs.reconnects) + " reconnects\n";
  }
  if (registry_ != nullptr) {
    out += "sessions:       " + std::to_string(registry_->live()) +
           " live / " + std::to_string(registry_->total_created()) +
           " total\n";
  }
  if (governance_ != nullptr) {
    const bool degraded = governance_->degraded.load();
    out += std::string("governance:     ") +
           (degraded ? "DEGRADED (queue depth " +
                           std::to_string(governance_->queue_depth.load()) +
                           ")"
                     : "normal") +
           ", " + std::to_string(governance_->degrade_entries.load()) +
           " episode(s), shed threshold " +
           std::to_string(governance_->shed_cost_threshold) + "\n";
    out += "cancelled:      " + std::to_string(governance_->total_cancelled()) +
           " (deadline " +
           std::to_string(governance_->cancelled_deadline.load()) +
           ", budget " + std::to_string(governance_->cancelled_budget.load()) +
           ", disconnect " +
           std::to_string(governance_->cancelled_disconnect.load()) +
           ", shed " + std::to_string(governance_->cancelled_shed.load()) +
           ")\n";
    out += "worst request:  " +
           std::to_string(governance_->worst_request_ms.load()) + " ms\n";
  }
  out += "session:        #" + std::to_string(id_) + ", " +
         std::to_string(requests_) + " request(s), overlay " +
         std::to_string(overlay_size()) + ", " +
         std::to_string(steps_used_) + " steps\n";
  return out;
}

StatusOr<std::string> ServerSession::Execute(std::string_view line) {
  ++requests_;
  std::string_view stripped = StripWhitespace(line);
  if (stripped.empty()) return std::string();
  std::istringstream in{std::string(stripped)};
  std::string cmd;
  in >> cmd;
  cmd = AsciiToLower(cmd);
  std::string rest;
  std::getline(in, rest);
  rest = std::string(StripWhitespace(rest));

  // ---- Follower contract -------------------------------------------------
  // A follower's store is the primary's, replayed: writes belong on the
  // primary, and reads are only honest within the staleness bound.
  if (replication_ != nullptr) {
    if (IsMutationVerb(cmd)) {
      return Status::FailedPrecondition(
          "read-only follower: mutations must go to the primary");
    }
    if (IsGatedReadVerb(cmd)) {
      LSD_RETURN_IF_ERROR(replication_->CheckReadable());
    }
  }

  // ---- Resource governance -----------------------------------------------
  // Control verbs (ping, session, stats, hypo, ...) are never shed or
  // budget-gated: they are how a client observes the very overload that
  // is rejecting its queries.
  const bool governed = IsMutationVerb(cmd) || IsGatedReadVerb(cmd);
  if (governance_ != nullptr && governed) {
    if (governance_->session_step_budget > 0 &&
        steps_used_ >= governance_->session_step_budget) {
      governance_->CountCancel(CancelReason::kBudget);
      return Status::ResourceExhausted(
          "session step budget exhausted (" + std::to_string(steps_used_) +
          " steps used)");
    }
    // Graceful degradation: while overloaded, shed only requests the
    // planner prices as expensive — cheap probes keep flowing, and
    // point mutations (priced at zero unless they drag an overlay
    // rebuild) keep committing.
    if (governance_->degraded.load(std::memory_order_relaxed) &&
        EstimateCost(cmd, rest) > governance_->shed_cost_threshold) {
      governance_->CountCancel(CancelReason::kShed);
      return QueryBudget::CancelStatus(CancelReason::kShed);
    }
  }
  // Operation-boundary check: a request arriving already cancelled (or
  // past its deadline after queue wait) is refused before any work —
  // the in-loop tickers only settle every kStride iterations, so a
  // small read could otherwise slip through an expired budget.
  if (governed) {
    LSD_RETURN_IF_ERROR(CheckBudget());
  }

  // ---- Server verbs ------------------------------------------------------
  if (cmd == "ping") return std::string("pong\n");
  if (cmd == "hypo") return ExecuteHypo(rest);
  if (cmd == "session") {
    std::string out = "session #" + std::to_string(id_) + "\n";
    out += "requests:  " + std::to_string(requests_) + "\n";
    out += "overlay:   " + std::to_string(overlay_size()) +
           " hypothetical(s)\n";
    out += "steps:     " + std::to_string(steps_used_) + "\n";
    out += "epoch:     " + std::to_string(last_epoch_sequence_) + "\n";
    if (!trail_.empty()) out += "trail:     " + Breadcrumbs() + "\n";
    return out;
  }
  if (cmd == "stats") return RenderStats();
  if (cmd == "help") {
    return std::string(
        "commands: assert|retract (S,R,T) · assert*|retract* (S,R,T)..\n"
        "          rule/integrity NAME: b => h\n"
        "          define NAME(?P..) := F · call NAME(args..)\n"
        "          query F · probe F · nav E · visit E · back · forward\n"
        "          assoc S T · try E · near E [r] · dist A B · dot [E]\n"
        "          relation CLASS R T [R T..] · limit N ·"
        " include/exclude NAME\n"
        "          hypo assert|retract (S,R,T) · hypo list · hypo clear\n"
        "          rules · check · load FILE · save PREFIX · checkpoint\n"
        "          stats · session · ping · quit\n");
  }

  // ---- Shared writes (commit path) ---------------------------------------
  // Cancellation composes with group commit: this is the last budget
  // check before a slot enqueues, which is the point of no return —
  // once Commit() is called the slot rides its group to the ack, so a
  // deadline or disconnect that fires mid-commit waits for the ack
  // rather than tearing a half-applied mutation. (CommitRecords
  // re-checks for the fact verbs.)
  if (IsMutationVerb(cmd)) LSD_RETURN_IF_ERROR(CheckBudget());
  if (cmd == "assert" || cmd == "retract" || cmd == "assert*" ||
      cmd == "retract*") {
    // Every fact is parsed before the slot enqueues: a malformed one
    // rejects the whole request, so it cannot fail any other writer's
    // slot, and nothing commits. A single verb is a batch of one.
    const bool batch = cmd.back() == '*';
    const bool retract = cmd[0] == 'r';
    const WalOpCode op = retract ? WalOpCode::kRetract : WalOpCode::kAssert;
    LSD_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                         MutationRecords(op, rest, batch));
    LSD_ASSIGN_OR_RETURN(LooseDb::Tally tally, CommitRecords(records));
    if (batch) return RenderTally(tally);
    if (retract) {
      return std::string(tally.removed ? "removed\n" : "not asserted\n");
    }
    return std::string(tally.added ? "added\n" : "already present\n");
  }
  if (cmd == "rule" || cmd == "integrity") {
    auto epoch = store_->Commit([&](LooseDb& db) {
      return db.DefineRule(rest, cmd == "rule" ? RuleKind::kInference
                                               : RuleKind::kIntegrity);
    });
    if (!epoch.ok()) return epoch.status();
    return std::string("defined\n");
  }
  if (cmd == "define") {
    auto epoch =
        store_->Commit([&](LooseDb& db) { return db.DefineOperator(rest); });
    if (!epoch.ok()) return epoch.status();
    return std::string("defined\n");
  }
  if (cmd == "include" || cmd == "exclude") {
    auto epoch = store_->Commit([&](LooseDb& db) {
      return db.SetRuleEnabled(AsciiToLower(rest), cmd == "include");
    });
    if (!epoch.ok()) return epoch.status();
    return std::string(cmd == "include" ? "included\n" : "excluded\n");
  }
  if (cmd == "load") {
    auto epoch =
        store_->Commit([&](LooseDb& db) { return db.LoadTextFile(rest); });
    if (!epoch.ok()) return epoch.status();
    return std::string("loaded\n");
  }
  if (cmd == "checkpoint") {
    LSD_RETURN_IF_ERROR(store_->Checkpoint());
    return "checkpointed at generation " +
           std::to_string(store_->wal().durable_position().generation) +
           "\n";
  }

  // ---- Session-local settings --------------------------------------------
  if (cmd == "limit") {
    int n = 0;
    if (!(std::istringstream(rest) >> n)) {
      return Status::InvalidArgument("usage: limit N");
    }
    composition_limit_ = n;
    return "limit(" + std::to_string(n) + ") (this session)\n";
  }

  // ---- Reads (pinned epoch or overlay) -----------------------------------
  LSD_ASSIGN_OR_RETURN(PinnedDb pinned, Pin());
  LooseDb& db = *pinned.db;

  EvalOptions eval_options;
  eval_options.budget = budget_;
  if (cmd == "query") {
    LSD_ASSIGN_OR_RETURN(ResultSet r, db.Query(rest, eval_options));
    return FormatResult(r, db.entities());
  }
  if (cmd == "call") {
    LSD_ASSIGN_OR_RETURN(ResultSet r, db.Call(rest, eval_options));
    return FormatResult(r, db.entities());
  }
  if (cmd == "probe") {
    ProbeOptions probe_options;
    probe_options.budget = budget_;
    LSD_ASSIGN_OR_RETURN(ProbeResult probe, db.Probe(rest, probe_options));
    return RenderProbe(probe, db.entities());
  }
  if (cmd == "nav") {
    LSD_ASSIGN_OR_RETURN(NeighborhoodView hood, db.Navigate(rest, budget_));
    return hood.Render(db.entities());
  }
  if (cmd == "visit") return ExecuteVisit(rest);
  if (cmd == "back") return ExecuteBackForward(/*back=*/true);
  if (cmd == "forward") return ExecuteBackForward(/*back=*/false);
  if (cmd == "assoc") {
    const WalkArgs walk(cmd, rest);
    auto sid = db.entities().Lookup(walk.a);
    auto tid = db.entities().Lookup(walk.b);
    if (!sid.has_value() || !tid.has_value()) {
      return Status::NotFound("unknown entity: " +
                              (sid.has_value() ? walk.b : walk.a));
    }
    LSD_ASSIGN_OR_RETURN(const ClosureView* view, db.View());
    Navigator navigator(view, &db.entities());
    CompositionOptions options;
    options.budget = budget_;
    options.limit = composition_limit_ >= 0 ? composition_limit_
                                            : db.composition_limit();
    LSD_ASSIGN_OR_RETURN(std::vector<Association> assocs,
                         navigator.Associations(*sid, *tid, options));
    return navigator.RenderAssociations(*sid, *tid, assocs);
  }
  if (cmd == "try") {
    return db.Try(rest);
  }
  if (cmd == "near") {
    const WalkArgs walk(cmd, rest);
    LSD_ASSIGN_OR_RETURN(std::vector<NearbyEntity> nearby,
                         db.Nearby(walk.a, walk.radius, budget_));
    std::string out;
    for (const NearbyEntity& n : nearby) {
      out += "  " + std::to_string(n.distance) + "  " +
             db.entities().Name(n.entity) + "\n";
    }
    return out;
  }
  if (cmd == "dist") {
    const WalkArgs walk(cmd, rest);
    LSD_ASSIGN_OR_RETURN(std::optional<int> d,
                         db.SemanticDistance(walk.a, walk.b, walk.radius,
                                             budget_));
    if (d.has_value()) {
      return "semantic distance " + std::to_string(*d) + "\n";
    }
    return std::string("not connected within the search radius\n");
  }
  if (cmd == "relation") {
    std::istringstream args(rest);
    std::string klass;
    args >> klass;
    std::vector<std::pair<std::string, std::string>> columns;
    std::string rel, target;
    while (args >> rel >> target) columns.emplace_back(rel, target);
    if (klass.empty() || columns.empty()) {
      return Status::InvalidArgument(
          "usage: relation CLASS R1 T1 [R2 T2 ...]");
    }
    LSD_ASSIGN_OR_RETURN(RelationTable table, db.Relation(klass, columns));
    return table.Render(db.entities());
  }
  if (cmd == "dot") {
    LSD_ASSIGN_OR_RETURN(const ClosureView* view, db.View());
    if (rest.empty()) return ExportDot(*view);
    auto id = db.entities().Lookup(rest);
    if (!id.has_value()) {
      return Status::NotFound("unknown entity: " + rest);
    }
    return ExportNeighborhoodDot(*view, *id, 2);
  }
  if (cmd == "check") {
    LSD_ASSIGN_OR_RETURN(std::vector<IntegrityViolation> violations,
                         db.FindIntegrityViolations());
    if (violations.empty()) {
      return std::string("closure is contradiction-free\n");
    }
    std::string out;
    for (const auto& v : violations) out += "  " + v.description + "\n";
    return out;
  }
  if (cmd == "rules") {
    std::string out;
    for (const Rule& r : db.rules()) {
      out += std::string("  [") + (r.enabled ? 'x' : ' ') + "] " +
             SerializeRule(r, db.entities()) + "\n";
    }
    return out;
  }
  if (cmd == "save") {
    // Export the pinned epoch — a consistent point-in-time image even
    // while other sessions keep committing. Never onto the store's own
    // prefix: recovery would replay the whole log over the export.
    if (rest.empty()) return Status::InvalidArgument("usage: save PREFIX");
    if (rest == store_->save_prefix()) {
      return Status::FailedPrecondition(
          "save would overwrite this store's own snapshot; use "
          "'checkpoint'");
    }
    LSD_RETURN_IF_ERROR(db.Save(rest));
    return "saved " + rest + ".snap\n";
  }

  return Status::InvalidArgument("unknown command '" + cmd +
                                 "'; try 'help'");
}

}  // namespace lsd
