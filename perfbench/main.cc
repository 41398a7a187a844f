// lsd_perfbench — the repository's end-to-end benchmark.
//
// Drives seeded workloads in process through ServerSession::Execute,
// the call an LsdServer worker makes per request, with the same
// per-request QueryBudget the worker installs (the server's default
// deadline, no step cap). No sockets are involved in a timed loop:
// loopback hand-offs and reactor scheduling swing run to run far more
// than the library does (NOTES.md has the measurements).
//
//   lsd_perfbench --workload browse|write|mixed --seed N --seconds S
//                 --trace 0|1 [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures an
// untraced and a traced window back to back and reports the per-layer
// breakdown. Human-readable lines go first; the last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// DIR (default .bench_build/work) holds write-ahead logs and the span
// dump; the run removes its logs before it exits.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "browse/navigation.h"
#include "core/loose_db.h"
#include "generator.h"
#include "server/governance.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---- Workload shapes ------------------------------------------------------

// Closure worker threads for every epoch. lsd_serve leaves this at 0
// (hardware_concurrency); a fixed count keeps the commit path's cost
// independent of the host's core count and of other tenants.
constexpr unsigned kClosureThreads = 1;
// Set-up runs this many times per run, half before the measured window
// and half after it, so that setup_s, the median, spans the whole run
// rather than its first seconds.
constexpr int kSetupReps = 8;
constexpr int kWriters = 3;
constexpr int kWriterWarmupCommits = 3;
// The mixed cycle: rounds, and reads between two write steps of a round.
constexpr size_t kMixedRounds = 8;
constexpr size_t kMixedReadsPerWrite = 24;
// Side timings of the commit path after the traced window.
constexpr int kSideReps = 5;
constexpr size_t kRef1mDraws = 1'000'000;
constexpr int kRef1mReps = 2;

struct WorkloadSpec {
  std::string name;
  size_t draws = 0;  // E9 graph size; every store adds the taxonomy
  bool durable = false;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "browse") return WorkloadSpec{name, 100'000, false};
  if (name == "write") return WorkloadSpec{name, 8'000, true};
  if (name == "mixed") return WorkloadSpec{name, 30'000, true};
  return std::nullopt;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

// ---- Small helpers ----------------------------------------------------------

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Digest(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

// A fixed DRAM-latency kernel: a dependent walk over one random cycle
// through 16 MiB. It runs before set-up and after tear-down, so it
// separates host drift from a change in the program.
double HostProbeMs() {
  constexpr uint32_t kSlots = 4u << 20;
  constexpr uint32_t kSteps = 2u << 20;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  lsd::Rng rng(20240601);
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.Uniform(i)]);
  }
  const auto t0 = Clock::now();
  uint32_t p = 0;
  for (uint32_t k = 0; k < kSteps; ++k) p = next[p];
  const auto t1 = Clock::now();
  if (p == kSlots) std::puts("");  // keeps the walk observable
  return MsSince(t0, t1);
}

// The three names of "(S, R, T)" inside a command line.
std::vector<std::string> GroundNames(const std::string& line) {
  std::vector<std::string> names;
  const size_t open = line.find('(');
  const size_t close = line.find(')', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  std::string inner = line.substr(open + 1, close - open - 1);
  size_t pos = 0;
  while (pos <= inner.size()) {
    size_t comma = inner.find(',', pos);
    if (comma == std::string::npos) comma = inner.size();
    std::string name = inner.substr(pos, comma - pos);
    name.erase(0, name.find_first_not_of(' '));
    name.erase(name.find_last_not_of(' ') + 1);
    names.push_back(name);
    pos = comma + 1;
  }
  return names;
}

std::pair<std::string, std::string> SplitVerb(const std::string& line) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) return {line, ""};
  return {line.substr(0, space), line.substr(space + 1)};
}

// ---- Metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(const std::string& what) { notes_.push_back(what); }
  // Called from the writer threads too.
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 20) errors_.push_back(what);
    correct_ = false;
  }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
    for (const std::string& e : errors_) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::mutex mu_;  // guards errors_ and correct_
  std::vector<std::string> errors_;
  bool correct_ = true;
};

// ---- The store and its sessions ---------------------------------------------

lsd::LooseDbOptions StoreOptions() {
  lsd::LooseDbOptions options;
  options.closure.num_threads = kClosureThreads;
  return options;
}

struct Env {
  std::unique_ptr<lsd::SharedStore> store;
  StoreInfo info;
  std::string dir;     // this set-up's scratch directory
  std::string prefix;  // durable stores: the snapshot/WAL prefix
};

// Set-up as lsd_serve does it: (durable stores) recover an empty log,
// bulk-commit the generated store as one group (clone, apply, closure,
// warm, WAL, publish), then start background compaction with the
// default triggers.
lsd::Status BuildEnv(const WorkloadSpec& spec, uint64_t seed,
                     const std::string& dir, Env* env) {
  env->dir = dir;
  env->store = std::make_unique<lsd::SharedStore>(StoreOptions());
  if (spec.durable) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return lsd::Status::IoError("cannot create " + dir);
    env->prefix = dir + "/db";
    lsd::SharedStoreDurability durability;
    durability.sync = lsd::WalSync::kFlush;
    LSD_RETURN_IF_ERROR(env->store->OpenDurable(env->prefix, durability));
  }
  auto committed = env->store->Commit([&](lsd::LooseDb& db) {
    env->info = BuildStore(&db, spec.draws, seed);
    return lsd::Status::OK();
  });
  if (!committed.ok()) return committed.status();
  return env->store->EnableCompaction(lsd::CompactionOptions());
}

void DropEnv(Env* env) {
  env->store.reset();
  if (!env->dir.empty()) {
    std::error_code ec;
    fs::remove_all(env->dir, ec);
  }
}

// A session as a connection gets one: from the registry, under the
// server's governance state.
struct Client {
  lsd::GovernanceState governance;
  lsd::SessionRegistry registry;
  std::vector<std::shared_ptr<lsd::ServerSession>> sessions;

  Client(lsd::SharedStore* store, int n) : registry(store) {
    registry.set_governance(&governance);
    for (int i = 0; i < n; ++i) {
      sessions.push_back(
          registry.Create(lsd::ServerOptions().max_sessions));
    }
  }
};

// The budget LsdServer::ExecuteOne gives each request: the server's
// default deadline and step cap.
lsd::QueryBudget RequestBudget() {
  const lsd::ServerOptions defaults;
  return lsd::QueryBudget(
      lsd::QueryBudget::Clock::now() + defaults.request_timeout,
      defaults.max_steps_per_request);
}

// One request the way LsdServer::ExecuteOne runs it: a fresh budget
// around Execute, its charged steps folded into the session's tally.
lsd::StatusOr<std::string> RunRequest(lsd::ServerSession* session,
                                      const std::string& line,
                                      uint64_t* steps = nullptr) {
  lsd::QueryBudget budget = RequestBudget();
  session->set_request_budget(&budget);
  lsd::StatusOr<std::string> result = session->Execute(line);
  session->set_request_budget(nullptr);
  session->AccumulateSteps(budget.steps());
  if (steps != nullptr) *steps = budget.steps();
  return result;
}

// ---- Timed results ----------------------------------------------------------

// Latencies in log buckets 0.5 % wide from 1 us to about 100 s. The
// memory is fixed, so the recorder's own footprint does not grow with
// the program's throughput and leak into peak_rss_mb.
class Latencies {
 public:
  void Add(double ms) {
    ++counts_[Bucket(ms)];
    ++count_;
    sum_ms_ += ms;
  }
  void Merge(const Latencies& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ms_ += other.sum_ms_;
  }
  uint64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  // Nearest-rank quantile, to within half a bucket; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
        count_);
    uint64_t seen = 0;
    size_t b = 0;
    while (seen + counts_[b] < rank) seen += counts_[b++];
    return b == 0 ? kMinMs : kMinMs * std::pow(kStep, b - 0.5);
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kStep = 1.005;
  static constexpr size_t kBuckets = 3700;
  static size_t Bucket(double ms) {
    if (!(ms > kMinMs)) return 0;
    const double b = 1 + std::floor(std::log(ms / kMinMs) / std::log(kStep));
    return std::min(kBuckets - 1, static_cast<size_t>(b));
  }
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
  double sum_ms_ = 0;
};

struct Recorder {
  Latencies by_verb[static_cast<int>(Verb::kCount)];
  Latencies all;
  std::vector<double> done_s;  // writers: ack times since window start
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(Verb verb, double ms, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      return;
    }
    by_verb[static_cast<int>(verb)].Add(ms);
    all.Add(ms);
  }
  void Merge(const Recorder& other) {
    for (int v = 0; v < static_cast<int>(Verb::kCount); ++v) {
      by_verb[v].Merge(other.by_verb[v]);
    }
    all.Merge(other.all);
    attempted += other.attempted;
    failed += other.failed;
  }
  uint64_t count(Verb verb) const {
    return by_verb[static_cast<int>(verb)].count();
  }
};

// Per-layer tallies the traced window gathers beside its spans.
struct LayerTally {
  uint64_t query_steps = 0;
  uint64_t query_rows = 0;
  uint64_t probe_calls = 0;
  uint64_t probe_queries = 0;
  uint64_t probe_successes = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_lookups = 0;
};

struct WindowResult {
  Recorder rec;
  double wall_s = 0;
  double side_s = 0;  // traced only: time spent in direct replays
  // Completed operations per second of each slice of the window: each
  // pass over the cycle (browse, mixed), each run of kWriteSliceAcks
  // acks (write). Printed to show how the rate moves within a run.
  std::vector<double> slice_rates;

  double ops_per_s() const { return rec.all.count() / wall_s; }
};

// Writers' throughput is sliced by acks (a slice of whole seconds
// would count whole commits and repeat exactly).
constexpr size_t kWriteSliceAcks = 16;

// ---- Output checks ----------------------------------------------------------

// The words of one line of an answer: table rules and padding dropped.
std::vector<std::string> Words(std::string_view line) {
  std::vector<std::string> words;
  std::string word;
  for (size_t i = 0; i <= line.size(); ++i) {
    const char c = i < line.size() ? line[i] : ' ';
    if (c != ' ' && c != '|') {
      word += c;
    } else if (!word.empty()) {
      words.push_back(std::move(word));
      word.clear();
    }
  }
  return words;
}

// Whether some line of `out` is exactly `want` (as words), or, with
// `anywhere`, holds `want[0]` among its words.
bool HasLine(const std::string& out, const std::vector<std::string>& want,
             bool anywhere = false) {
  size_t pos = 0;
  while (pos < out.size()) {
    size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    const std::vector<std::string> words =
        Words(std::string_view(out).substr(pos, end - pos));
    if (anywhere ? std::find(words.begin(), words.end(), want[0]) != words.end()
                 : words == want) {
      return true;
    }
    pos = end + 1;
  }
  return false;
}

// What the generated facts say the first line's answer must hold.
std::string CheckExpected(const Request& req, const std::string& out) {
  if (!req.expect_line.empty() && !HasLine(out, req.expect_line)) {
    std::string want;
    for (const std::string& w : req.expect_line) want += " " + w;
    return "answer lacks the line" + want;
  }
  if (!req.expect_word.empty() && !HasLine(out, {req.expect_word}, true)) {
    return "answer does not name " + req.expect_word;
  }
  if (!req.expect_text.empty() && !Contains(out, req.expect_text.c_str())) {
    return "answer lacks '" + req.expect_text + "'";
  }
  if (req.max_distance > 0) {
    const char* kPrefix = "semantic distance ";
    const int d = out.rfind(kPrefix, 0) == 0
                      ? std::atoi(out.c_str() + std::strlen(kPrefix))
                      : 0;
    if (d < 1 || d > req.max_distance) {
      return "distance is not within the known path of " +
             std::to_string(req.max_distance) + ": " + out;
    }
  }
  return "";
}

// What every execution of `req` must print, beyond matching the warm-up
// pass. Returns an empty string when the output is acceptable.
std::string CheckOutput(const Request& req, size_t line,
                        const std::string& out) {
  if (line == 0 && req.verb != Verb::kHypo) {
    const std::string problem = CheckExpected(req, out);
    if (!problem.empty()) return problem;
  }
  const bool golden_line = req.golden || (req.verb == Verb::kHypo && line == 1);
  if (golden_line) {
    const bool has_freshman = Contains(out, "FRESHMAN instead of STUDENT");
    if (!Contains(out, "CHEAP instead of FREE")) {
      return "golden probe lost the CHEAP entry";
    }
    if (req.verb == Verb::kHypo && has_freshman) {
      return "what-if probe still offers FRESHMAN inside the overlay";
    }
    if (req.verb != Verb::kHypo && !has_freshman) {
      return "golden probe lost the FRESHMAN entry";
    }
  }
  if (req.verb == Verb::kProbe && !req.golden &&
      !Contains(out, "Success with")) {
    return "taxonomy probe found no retraction";
  }
  if (req.verb == Verb::kCommit && out != "added\n") {
    return "assert did not add: " + out;
  }
  if (req.verb == Verb::kRetract && out != "removed\n") {
    return "retract did not remove: " + out;
  }
  if (req.verb == Verb::kHypo && line == 2 && out != "dropped 1 hypothetical(s)\n") {
    return "hypo clear: " + out;
  }
  return "";
}

// ---- Single-session cycle replay (browse, mixed) ------------------------

class CycleRunner {
 public:
  CycleRunner(Env* env, lsd::ServerSession* session, Cycle cycle,
              Report* report)
      : env_(env),
        session_(session),
        cycle_(std::move(cycle)),
        report_(report) {}

  const Cycle& cycle() const { return cycle_; }

  // The untimed warm-up pass. Records each distinct request's digest
  // and checks its repeats against it.
  void WarmUp() {
    digests_.assign(cycle_.requests.size(), std::nullopt);
    Pass(nullptr, nullptr, nullptr);
  }

  // Replays whole passes of the cycle until `seconds` have gone by. With
  // a tracer, each read is replayed through the direct layer calls too,
  // and the time those replays take is kept out of `wall_s`.
  WindowResult Timed(double seconds, Tracer* tracer, LayerTally* tally) {
    WindowResult result;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    auto now = start;
    while (now < end) {
      const uint64_t ops = result.rec.all.count();
      const double side_s = result.side_s;
      Pass(&result, tracer, tally);
      const auto pass_end = Clock::now();
      result.slice_rates.push_back(
          (result.rec.all.count() - ops) /
          (MsSince(now, pass_end) / 1000.0 - (result.side_s - side_s)));
      now = pass_end;
    }
    result.wall_s = MsSince(start, now) / 1000.0 - result.side_s;
    return result;
  }

 private:
  // One pass over the cycle's order; `result` null for the warm-up.
  void Pass(WindowResult* result, Tracer* tracer, LayerTally* tally) {
    double ignored_side_s = 0;
    for (uint32_t index : cycle_.order) {
      const Request& req = cycle_.requests[index];
      const uint64_t rid = next_request_++;
      uint64_t digest = 0;
      const auto t0 = Clock::now();
      const bool ok =
          Execute(req, &digest, tracer, rid, tally,
                  result == nullptr ? &ignored_side_s : &result->side_s);
      const auto t1 = Clock::now();
      if (result != nullptr) result->rec.Add(req.verb, MsSince(t0, t1), ok);
      if (!ok) continue;
      std::optional<uint64_t>& expected = digests_[index];
      if (!expected.has_value()) {
        expected = digest;
      } else if (digest != *expected) {
        report_->Fail(std::string(VerbName(req.verb)) + " '" +
                      req.lines[0] + "' answered differently than in the "
                      "warm-up pass");
      }
    }
  }

  bool Execute(const Request& req, uint64_t* digest, Tracer* tracer,
               uint64_t rid, LayerTally* tally, double* side_s) {
    bool ok = true;
    std::string combined;
    // Planner hits are counted untraced: a traced read's direct replay
    // would warm the plan cache for the next read.
    const bool count_plans = tally != nullptr && tracer == nullptr;
    for (size_t l = 0; l < req.lines.size(); ++l) {
      const std::string& line = req.lines[l];
      lsd::EpochPtr pinned;
      uint64_t hits0 = 0, misses0 = 0;
      if (count_plans) {
        pinned = env_->store->snapshot();
        hits0 = pinned->db().planner_hits();
        misses0 = pinned->db().planner_misses();
      }
      uint64_t steps = 0;
      lsd::StatusOr<std::string> out = [&] {
        ScopedSpan span(tracer, "server.execute", rid);
        return RunRequest(session_, line, &steps);
      }();
      if (count_plans) {
        tally->plan_hits += pinned->db().planner_hits() - hits0;
        tally->plan_lookups += pinned->db().planner_hits() - hits0 +
                               pinned->db().planner_misses() - misses0;
      }
      if (!out.ok()) {
        report_->Fail(line + ": " + out.status().ToString());
        ok = false;
        continue;
      }
      const std::string problem = CheckOutput(req, l, *out);
      if (!problem.empty()) {
        report_->Fail(line + ": " + problem + "; the answer began: " +
                      out->substr(0, 240));
      }
      combined += *out;
      if (tracer != nullptr) {
        const auto t0 = Clock::now();
        ReplayCodec(tracer, rid, line, *out);
        if (req.verb != Verb::kHypo && req.verb != Verb::kCommit &&
            req.verb != Verb::kRetract) {
          ReplayRead(line, steps, tracer, rid, tally);
        }
        *side_s += MsSince(t0, Clock::now()) / 1000.0;
      }
    }
    *digest = Digest(combined);
    return ok;
  }

  // The wire codec over the same request and response, off the timed
  // path (timed loops have no wire).
  void ReplayCodec(Tracer* tracer, uint64_t rid, const std::string& line,
                   const std::string& out) {
    ScopedSpan span(tracer, "server.codec", rid);
    lsd::BinaryFrameParser parser;
    lsd::BinaryFrame frame;
    parser.Feed(lsd::EncodeFrame(lsd::FrameType::kRequest, rid, line));
    bool ok = parser.Next(&frame) == lsd::BinaryFrameParser::Result::kFrame &&
              frame.payload == line;
    parser.Feed(lsd::EncodeFrame(lsd::FrameType::kOk, rid, out));
    ok = ok && parser.Next(&frame) == lsd::BinaryFrameParser::Result::kFrame &&
         frame.payload.size() == out.size();
    if (!ok) report_->Fail("binary codec round trip failed for " + line);
  }

  // The same read through the direct layer calls, on a fresh pin.
  void ReplayRead(const std::string& line,
                  uint64_t execute_steps, Tracer* tracer, uint64_t rid,
                  LayerTally* tally) {
    lsd::EpochPtr epoch;
    {
      ScopedSpan span(tracer, "server.pin", rid);
      epoch = env_->store->snapshot();
    }
    lsd::LooseDb& db = epoch->db();
    lsd::QueryBudget budget = RequestBudget();
    auto [cmd, rest] = SplitVerb(line);
    bool ok = true;
    if (cmd == "query") {
      lsd::StatusOr<lsd::Query> query = [&] {
        ScopedSpan span(tracer, "query.parse", rid);
        return db.Parse(rest);
      }();
      ok = query.ok();
      if (ok) {
        ScopedSpan span(tracer, "query.run", rid);
        lsd::EvalOptions options;
        options.budget = &budget;
        auto rows = db.Run(*query, options);
        ok = rows.ok();
        if (ok) {
          tally->query_rows += rows->rows.size();
          tally->query_steps += execute_steps;
        }
      }
    } else if (cmd == "nav") {
      ScopedSpan span(tracer, "browse.nav", rid);
      auto hood = db.Navigate(rest, &budget);
      ok = hood.ok() && !hood->Render(db.entities()).empty();
    } else if (cmd == "probe") {
      ScopedSpan span(tracer, "browse.probe", rid);
      lsd::ProbeOptions options;
      options.budget = &budget;
      auto probe = db.Probe(rest, options);
      ok = probe.ok();
      if (ok) {
        (void)probe->Menu(db.entities());
        ++tally->probe_calls;
        tally->probe_queries += probe->queries_attempted;
        tally->probe_successes += probe->successes.size();
      }
    } else if (cmd == "assoc") {
      ScopedSpan span(tracer, "browse.assoc", rid);
      auto [s, t] = SplitVerb(rest);
      auto sid = db.entities().Lookup(s);
      auto tid = db.entities().Lookup(t);
      auto view = db.View();
      ok = sid.has_value() && tid.has_value() && view.ok();
      if (ok) {
        lsd::Navigator navigator(*view, &db.entities());
        lsd::CompositionOptions options;
        options.budget = &budget;
        options.limit = db.composition_limit();
        auto assocs = navigator.Associations(*sid, *tid, options);
        ok = assocs.ok();
        if (ok) (void)navigator.RenderAssociations(*sid, *tid, *assocs);
      }
    } else if (cmd == "dist") {
      ScopedSpan span(tracer, "browse.dist", rid);
      auto [a, b] = SplitVerb(rest);
      ok = db.SemanticDistance(a, b, 4, &budget).ok();
    } else if (cmd == "near") {
      ScopedSpan span(tracer, "browse.dist", rid);
      auto [e, radius] = SplitVerb(rest);
      ok = db.Nearby(e, std::atoi(radius.c_str()), &budget).ok();
    }
    if (!ok) report_->Fail("direct replay failed for " + line);
  }

  Env* env_;
  lsd::ServerSession* session_;
  Cycle cycle_;
  Report* report_;
  std::vector<std::optional<uint64_t>> digests_;
  uint64_t next_request_ = 1;
};

// ---- Writers (write) --------------------------------------------------------

// Three closed-loop writer sessions committing unique single-fact
// asserts for `seconds`. Traced, each writer calls SharedStore::Commit
// itself so the mutation closure (core.apply) nests inside the commit
// span; untraced, they go through Execute like any client.
class Writers {
 public:
  Writers(Env* env, Client* client, uint64_t seed, Report* report)
      : env_(env), client_(client), seed_(seed), report_(report) {}

  void WarmUp() {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([this, w] {
        Recorder ignored;
        for (int i = 0; i < kWriterWarmupCommits; ++i) {
          CommitOne(w, nullptr, &ignored);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  WindowResult Timed(double seconds, std::vector<Tracer>* tracers) {
    WindowResult result;
    std::vector<Recorder> recs(kWriters);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Tracer* tracer = tracers == nullptr ? nullptr : &(*tracers)[w];
        while (Clock::now() < end) {
          if (CommitOne(w, tracer, &recs[w])) {
            recs[w].done_s.push_back(MsSince(start, Clock::now()) / 1000.0);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    result.wall_s = MsSince(start, Clock::now()) / 1000.0;
    for (const Recorder& r : recs) result.rec.Merge(r);
    std::vector<double> acks;
    for (const Recorder& r : recs) {
      acks.insert(acks.end(), r.done_s.begin(), r.done_s.end());
    }
    std::sort(acks.begin(), acks.end());
    for (size_t i = kWriteSliceAcks; i < acks.size(); i += kWriteSliceAcks) {
      result.slice_rates.push_back(kWriteSliceAcks /
                                   (acks[i] - acks[i - kWriteSliceAcks]));
    }
    return result;
  }

  // Every acked fact must be in the tip.
  void CheckAcked(const lsd::LooseDb& tip) {
    for (int w = 0; w < kWriters; ++w) {
      for (const std::string& line : acked_[w]) {
        std::vector<std::string> names = GroundNames(line);
        auto s = tip.entities().Lookup(names[0]);
        auto r = tip.entities().Lookup(names[1]);
        auto t = tip.entities().Lookup(names[2]);
        if (!s || !r || !t || !tip.store().Contains(lsd::Fact(*s, *r, *t))) {
          report_->Fail("acked fact missing from the tip: " + line);
          return;
        }
      }
    }
  }

  uint64_t acked() const {
    uint64_t n = 0;
    for (const auto& a : acked_) n += a.size();
    return n;
  }

 private:
  // Returns whether the commit was acked as a new fact.
  bool CommitOne(int w, Tracer* tracer, Recorder* rec) {
    const std::string line = WriterAssert(env_->info, seed_, w, next_[w]++);
    const uint64_t rid = (static_cast<uint64_t>(w) << 48) | next_[w];
    const auto t0 = Clock::now();
    bool ok = false;
    if (tracer == nullptr) {
      auto out = RunRequest(client_->sessions[w].get(), line);
      ok = out.ok() && *out == "added\n";
      if (!out.ok()) report_->Fail(line + ": " + out.status().ToString());
    } else {
      const std::vector<std::string> names = GroundNames(line);
      bool added = false;
      ScopedSpan span(tracer, "server.commit", rid);
      auto epoch = env_->store->Commit([&](lsd::LooseDb& db) {
        // Runs on the group leader's thread while this writer waits, so
        // recording into this writer's tracer does not race.
        ScopedSpan apply(tracer, "core.apply", rid);
        lsd::Fact f(db.entities().Intern(names[0]),
                    db.entities().Intern(names[1]),
                    db.entities().Intern(names[2]));
        added = db.Assert(f);
        return lsd::Status::OK();
      });
      ok = epoch.ok() && added;
      if (!epoch.ok()) report_->Fail(line + ": " + epoch.status().ToString());
    }
    const double ms = MsSince(t0, Clock::now());
    if (ok) {
      acked_[w].push_back(line);
    } else {
      report_->Fail("write not acked as new: " + line);
    }
    rec->Add(Verb::kCommit, ms, ok);
    return ok;
  }

  Env* env_;
  Client* client_;
  uint64_t seed_;
  Report* report_;
  uint64_t next_[kWriters] = {};
  std::vector<std::string> acked_[kWriters];
};

// ---- Side timings of the commit path ------------------------------------

// Times, on a private clone of the pinned tip, the steps a commit runs
// inside SharedStore::Commit: clone, apply, closure (View) and warm.
// With `overlay`, the clone is what ServerSession::Pin builds for a
// what-if step instead (clone + retract + View, no warm).
void SideTimeCommit(lsd::SharedStore* store, Tracer* tracer, uint64_t rid,
                    const std::function<void(lsd::LooseDb&)>& mutate,
                    bool overlay, Report* report) {
  lsd::EpochPtr tip = store->snapshot();
  lsd::LooseDbOptions options = store->options();
  options.standard_rules = false;
  auto clone = std::make_unique<lsd::LooseDb>(options);
  ScopedSpan outer(overlay ? tracer : nullptr, "server.overlay", rid);
  lsd::Status status;
  {
    ScopedSpan span(tracer, "core.clone", rid);
    status = tip->db().CloneInto(clone.get());
  }
  {
    ScopedSpan span(tracer, "core.apply", rid);
    mutate(*clone);
  }
  {
    ScopedSpan span(tracer, "rules.closure", rid);
    if (status.ok()) status = clone->View().status();
  }
  if (!overlay) {
    ScopedSpan span(tracer, "core.warm", rid);
    if (status.ok()) status = clone->Warm();
  }
  if (!status.ok()) report->Fail("side-timed commit: " + status.ToString());
}

// ---- Span statistics ----------------------------------------------------

class SpanStats {
 public:
  explicit SpanStats(const std::vector<Tracer>& tracers) {
    for (const Tracer& t : tracers) {
      const std::vector<int64_t> self = SelfTimesNs(t.spans());
      for (size_t i = 0; i < t.spans().size(); ++i) {
        const Span& s = t.spans()[i];
        durations_[s.name].push_back(s.duration_ns() / 1e6);
        self_[s.name].push_back(self[i] / 1e6);
        if (s.parent < 0) by_request_[s.request].push_back(&s);
      }
    }
  }

  // Median duration (ms) of the spans called `name`; 0 if none.
  double MedianMs(const std::string& name) const {
    auto it = durations_.find(name);
    return it == durations_.end() ? 0 : Median(it->second);
  }
  double MedianSelfMs(const std::string& name) const {
    auto it = self_.find(name);
    return it == self_.end() ? 0 : Median(it->second);
  }
  // Per request with both: Execute time minus the direct layer calls
  // replaying the same read (pin, parse/run, browse calls).
  double MedianInterpSelfMs() const {
    std::vector<double> interp;
    for (const auto& [rid, spans] : by_request_) {
      double execute = 0, direct = 0;
      bool has_direct = false;
      for (const Span* s : spans) {
        const std::string name = s->name;
        if (name == "server.execute") {
          execute += s->duration_ns() / 1e6;
        } else if (name != "server.codec") {
          direct += s->duration_ns() / 1e6;
          has_direct = true;
        }
      }
      if (execute > 0 && has_direct) interp.push_back(execute - direct);
    }
    return Median(interp);
  }

 private:
  std::map<std::string, std::vector<double>> durations_;
  std::map<std::string, std::vector<double>> self_;
  std::map<uint64_t, std::vector<const Span*>> by_request_;
};

// ---- The run --------------------------------------------------------------

uint64_t WalBytes(const std::string& prefix) {
  if (prefix.empty()) return 0;
  uint64_t bytes = 0;
  for (const lsd::WalSegmentInfo& s : lsd::Wal::Inventory(prefix + ".wal")) {
    bytes += s.bytes;
  }
  return bytes;
}

// Names the write requests introduce that the generated store lacks:
// growth of the entity table that reads did not cause.
size_t NewWriteNames(const std::vector<std::string>& lines,
                     const lsd::EntityTable& entities) {
  std::set<std::string> fresh;
  for (const std::string& line : lines) {
    for (const std::string& name : GroundNames(line)) {
      if (!entities.Lookup(name).has_value()) fresh.insert(name);
    }
  }
  return fresh.size();
}

// Per verb class: its median with sample count and spread, and its share
// of the time the timed operations took.
void AddVerbMedians(const Recorder& rec, const WorkloadSpec& spec,
                    Report* report) {
  struct Row {
    Verb verb;
    const char* metric;
  };
  static const Row kRows[] = {
      {Verb::kQuery, "query_p50_ms"},   {Verb::kNav, "nav_p50_ms"},
      {Verb::kProbe, "probe_p50_ms"},   {Verb::kAssoc, "assoc_p50_ms"},
      {Verb::kDist, "dist_p50_ms"},     {Verb::kCommit, "commit_p50_ms"},
      {Verb::kRetract, "retract_p50_ms"}, {Verb::kHypo, "hypo_p50_ms"},
      {Verb::kFreshRead, "fresh_read_p50_ms"},
  };
  for (const Row& row : kRows) {
    const Latencies& v = rec.by_verb[static_cast<int>(row.verb)];
    if (v.count() == 0) continue;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "%s %-20s %12.4f ms  (n=%llu; p10 %.4f, p90 %.4f, max %.4f; "
                  "%.1f%% of the time)",
                  spec.name.c_str(), row.metric, v.Quantile(0.5),
                  static_cast<unsigned long long>(v.count()), v.Quantile(0.1),
                  v.Quantile(0.9), v.Quantile(1.0),
                  100.0 * v.sum_ms() / rec.all.sum_ms());
    report->Note(line);
  }
}

int Run(const Args& args, const WorkloadSpec& spec) {
  Report report;
  const std::string workdir =
      args.workdir + "/" + spec.name + "-" + std::to_string(::getpid());
  const double probe_start = HostProbeMs();

  // Set-up, timed each time; the last store before the window is the
  // one measured.
  std::vector<double> setup_s;
  Env env;
  auto set_up = [&] {
    DropEnv(&env);
    const auto t0 = Clock::now();
    lsd::Status built = BuildEnv(
        spec, args.seed, workdir + "/setup" + std::to_string(setup_s.size()),
        &env);
    setup_s.push_back(MsSince(t0, Clock::now()) / 1000.0);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.ToString().c_str());
    }
    return built.ok();
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    if (!set_up()) return 1;
  }
  lsd::SharedStore* store = env.store.get();
  lsd::EpochPtr first = store->snapshot();
  DescribeStore(first->db(), args.seed, &env.info);
  const size_t entities_setup = first->db().entities().size();
  {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s store: %zu asserted, %zu derived, %zu entities, "
                  "%zu graph entities (%zu above the assoc/dist/near fan "
                  "ceiling)",
                  spec.name.c_str(), first->db().store().size(),
                  first->db().closure_stats()->derived_facts, entities_setup,
                  env.info.entities.size(), CompositionExcluded(env.info));
    report.Note(line);
  }

  const bool single = spec.name != "write";
  Client client(store, single ? 1 : kWriters);
  std::unique_ptr<CycleRunner> cycle;
  std::unique_ptr<Writers> writers;
  std::vector<std::string> write_lines;
  if (single) {
    cycle = std::make_unique<CycleRunner>(
        &env, client.sessions[0].get(),
        spec.name == "browse"
            ? BrowseCycle(env.info, args.seed)
            : MixedCycle(env.info, args.seed, kMixedRounds,
                         kMixedReadsPerWrite),
        &report);
    for (const Request& r : cycle->cycle().requests) {
      if (r.verb == Verb::kCommit) write_lines.push_back(r.lines[0]);
    }
  } else {
    writers = std::make_unique<Writers>(&env, &client, args.seed, &report);
    for (int w = 0; w < kWriters; ++w) {
      write_lines.push_back(WriterAssert(env.info, args.seed, w, 0));
    }
  }
  const size_t write_names =
      NewWriteNames(write_lines, first->db().entities());

  // Untimed warm-up; its failures are reported like timed ones.
  if (cycle) {
    cycle->WarmUp();
  } else {
    writers->WarmUp();
  }
  const size_t entities_warm = store->snapshot()->db().entities().size();

  // Timed window(s).
  const uint64_t epoch_before = store->snapshot()->sequence();
  const lsd::GroupCommitStats groups_before = store->group_stats();
  const lsd::CompactionStats compaction_before = store->compaction_stats();
  const uint64_t wal_before = WalBytes(env.prefix);
  const uint64_t acked_before = writers ? writers->acked() : 0;
  WindowResult untraced, traced;
  LayerTally plan_tally, tally;
  std::vector<Tracer> tracers;
  const auto origin = Clock::now();
  for (int w = 0; w < kWriters; ++w) tracers.emplace_back(origin);
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  if (cycle) {
    untraced = cycle->Timed(window, nullptr, args.trace ? &plan_tally : nullptr);
    if (args.trace) traced = cycle->Timed(window, &tracers[0], &tally);
  } else {
    untraced = writers->Timed(window, nullptr);
    if (args.trace) traced = writers->Timed(window, &tracers);
  }
  const uint64_t epoch_after = store->snapshot()->sequence();
  const lsd::GroupCommitStats groups_after = store->group_stats();
  const lsd::CompactionStats compaction_after = store->compaction_stats();
  const uint64_t wal_after = WalBytes(env.prefix);

  // Side timings of the commit path on the settled tip (traced only).
  if (args.trace && spec.name != "browse") {
    const StoreInfo::Fact& graph_fact = env.info.facts.front();
    const std::string& fact_s = env.info.entities[graph_fact.s];
    const std::string& fact_t = env.info.entities[graph_fact.t];
    for (int rep = 0; rep < kSideReps; ++rep) {
      const uint64_t rid = (1ull << 62) + rep;
      if (spec.name == "write") {
        SideTimeCommit(store, &tracers[0], rid, [&](lsd::LooseDb& db) {
          db.Assert("SIDE-S", "SIDE", "SIDE-T" + std::to_string(rep));
        }, false, &report);
        continue;
      }
      SideTimeCommit(store, &tracers[0], rid, [&](lsd::LooseDb& db) {
        (void)db.Retract(fact_s, graph_fact.r, fact_t);
      }, false, &report);
      SideTimeCommit(store, &tracers[0], rid, [&](lsd::LooseDb& db) {
        (void)db.Retract("MOVIE-NIGHT", "COSTS", "FREE");
      }, true, &report);
    }
  }

  // Checks on the final state.
  lsd::EpochPtr tip = store->snapshot();
  const size_t entities_end = tip->db().entities().size();
  if (writers) writers->CheckAcked(tip->db());
  if (spec.name == "mixed") {
    // The what-if overlay is private: another session still sees the
    // shared answer while it is up, and clearing it restores the menu.
    Client observer(store, 2);
    lsd::ServerSession* a = observer.sessions[0].get();
    lsd::ServerSession* b = observer.sessions[1].get();
    (void)RunRequest(a, "hypo retract (MOVIE-NIGHT, COSTS, FREE)");
    auto mine = RunRequest(a, kGoldenProbe);
    auto theirs = RunRequest(b, kGoldenProbe);
    (void)RunRequest(a, "hypo clear");
    auto restored = RunRequest(a, kGoldenProbe);
    if (!mine.ok() || Contains(*mine, "FRESHMAN instead of STUDENT") ||
        !theirs.ok() || !Contains(*theirs, "FRESHMAN instead of STUDENT") ||
        !restored.ok() || !Contains(*restored, "FRESHMAN instead of STUDENT")) {
      report.Fail("what-if overlay leaked across sessions or was not cleared");
    }
  }
  lsd::ClosureStats closure = *tip->db().closure_stats();
  auto memory = tip->db().MemoryUsage();
  const size_t asserted = tip->db().store().size();
  if (!env.prefix.empty()) {
    // Recovery of the WAL prefix must reproduce the tip's fact count.
    const std::string prefix = env.prefix;
    client.sessions.clear();
    env.store.reset();  // closes the log; `tip` stays pinned
    lsd::LooseDb recovered(StoreOptions());
    lsd::Status status = recovered.Recover(prefix);
    if (!status.ok() || recovered.store().size() != asserted) {
      report.Fail("recovering the WAL gave " +
                  std::to_string(recovered.store().size()) + " facts, the tip has " +
                  std::to_string(asserted) + " (" + status.ToString() + ")");
    }
  }

  // ---- Reporting ----------------------------------------------------------
  {
    char line[240];
    std::snprintf(line, sizeof(line),
                  "%s entities: %zu after set-up, %zu after warm-up, %zu at "
                  "the end; epochs published while timed: %llu",
                  spec.name.c_str(), entities_setup, entities_warm,
                  entities_end,
                  static_cast<unsigned long long>(epoch_after - epoch_before));
    report.Note(line);
  }
  AddVerbMedians(untraced.rec, spec, &report);

  uint64_t attempted = untraced.rec.attempted + traced.rec.attempted;
  uint64_t failed = untraced.rec.failed + traced.rec.failed;
  const double untraced_ops = untraced.ops_per_s();
  if (!args.trace) {
    const Latencies& all = untraced.rec.all;
    const std::vector<double>& slices = untraced.slice_rates;
    // The tail: p99, or with fewer than 1,000 samples the highest
    // percentile that has 10 samples beyond it.
    const double n = static_cast<double>(all.count());
    const double pct = std::min(99.0, std::floor(100.0 - 1000.0 / n));
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s p%.0f_ms %.4f ms over %.0f samples (%.0f beyond)",
                  spec.name.c_str(), pct, all.Quantile(pct / 100), n,
                  std::floor(n * (100 - pct) / 100));
    report.Note(line);
    std::snprintf(line, sizeof(line),
                  "%s rate per slice (%zu slices): min %.4f p50 %.4f max %.4f",
                  spec.name.c_str(), slices.size(), Quantile(slices, 0),
                  Quantile(slices, 0.5), Quantile(slices, 1));
    report.Note(line);
    report.Add("ops_per_s", untraced_ops, "1/s");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    SpanStats spans(tracers);
    const double traced_ops = traced.ops_per_s();
    const double clone = spans.MedianMs("core.clone");
    const double warm_ms = spans.MedianMs("core.warm");
    // The commit path's closure step: extension after an assert on
    // write; full fixpoint after a retract or for an overlay on mixed.
    const double closure_ms = spans.MedianMs("rules.closure");
    const uint64_t groups = groups_after.groups - groups_before.groups;
    const uint64_t slots =
        groups_after.slots_acked + groups_after.slots_rejected -
        groups_before.slots_acked - groups_before.slots_rejected;
    const uint64_t merges = compaction_after.merges - compaction_before.merges;
    const uint64_t acked_facts =
        writers ? writers->acked() - acked_before
                : static_cast<uint64_t>(
                      untraced.rec.count(Verb::kCommit) +
                      untraced.rec.count(Verb::kRetract) +
                      traced.rec.count(Verb::kCommit) +
                      traced.rec.count(Verb::kRetract));
    report.Add("server.interp_self_ms", spans.MedianInterpSelfMs(), "ms");
    report.Add("server.pin_us", spans.MedianMs("server.pin") * 1000, "us");
    report.Add("server.commit_self_ms",
               writers ? spans.MedianSelfMs("server.commit") - clone -
                             closure_ms - warm_ms
                       : 0,
               "ms");
    report.Add("server.group_size",
               groups == 0 ? 0 : static_cast<double>(slots) / groups, "count");
    report.Add("server.overlay_ms", spans.MedianMs("server.overlay"), "ms");
    report.Add("server.codec_us", spans.MedianMs("server.codec") * 1000, "us");
    report.Add("core.clone_ms", clone, "ms");
    report.Add("core.apply_us", spans.MedianMs("core.apply") * 1000, "us");
    report.Add("core.warm_ms", warm_ms, "ms");
    report.Add("rules.closure_ms", closure_ms, "ms");
    report.Add("rules.rounds", closure.rounds, "count");
    report.Add("rules.derived", closure.derived_facts, "count");
    report.Add("rules.candidates_per_derived",
               closure.derived_facts == 0
                   ? 0
                   : static_cast<double>(closure.candidate_facts) /
                         closure.derived_facts,
               "ratio");
    report.Add("query.parse_us", spans.MedianMs("query.parse") * 1000, "us");
    report.Add("query.run_ms", spans.MedianMs("query.run"), "ms");
    report.Add("query.plan_hit_ratio",
               plan_tally.plan_lookups == 0
                   ? 0
                   : static_cast<double>(plan_tally.plan_hits) /
                         plan_tally.plan_lookups,
               "ratio");
    report.Add("query.steps_per_row",
               tally.query_rows == 0
                   ? 0
                   : static_cast<double>(tally.query_steps) / tally.query_rows,
               "ratio");
    report.Add("browse.nav_ms", spans.MedianMs("browse.nav"), "ms");
    report.Add("browse.probe_ms", spans.MedianMs("browse.probe"), "ms");
    report.Add("browse.assoc_ms", spans.MedianMs("browse.assoc"), "ms");
    report.Add("browse.dist_ms", spans.MedianMs("browse.dist"), "ms");
    report.Add("browse.probe_queries",
               tally.probe_calls == 0
                   ? 0
                   : static_cast<double>(tally.probe_queries) / tally.probe_calls,
               "count");
    report.Add("browse.probe_success_ratio",
               tally.probe_queries == 0
                   ? 0
                   : static_cast<double>(tally.probe_successes) /
                         tally.probe_queries,
               "ratio");
    report.Add("store.entities", entities_setup, "count");
    report.Add("store.read_interned",
               static_cast<double>(entities_end - entities_setup - write_names),
               "count");
    const double facts = static_cast<double>(asserted + closure.derived_facts);
    report.Add("store.bytes_per_fact",
               memory.ok() ? memory->total() / facts : 0, "B/fact");
    report.Add("store.overlay_ratio",
               memory.ok() && memory->total() > 0
                   ? static_cast<double>(memory->base.overlay_bytes +
                                         memory->derived.overlay_bytes) /
                         memory->total()
                   : 0,
               "ratio");
    report.Add("store.merges", merges, "count");
    report.Add("store.merge_ms",
               merges == 0 ? 0 : compaction_after.last_merge_ms, "ms");
    report.Add("store.wal_bytes_per_fact",
               acked_facts == 0 ? 0
                                : static_cast<double>(wal_after - wal_before) /
                                      acked_facts,
               "B/fact");
    report.Add("trace.overhead_pct",
               untraced_ops > 0 ? 100.0 * (1.0 - traced_ops / untraced_ops) : 0,
               "%");
    // Reference-scale commit points: the 1M-draw E9 graph, built once.
    env = Env();
    std::vector<Tracer> ref(1, Tracer(origin));
    {
      lsd::LooseDb db(StoreOptions());
      BuildE9Graph(&db, kRef1mDraws, args.seed);
      lsd::Status warmed = db.Warm();
      if (!warmed.ok()) report.Fail("ref1m warm: " + warmed.ToString());
      for (int rep = 0; rep < kRef1mReps; ++rep) {
        lsd::LooseDbOptions options = StoreOptions();
        options.standard_rules = false;
        lsd::LooseDb clone(options);
        {
          ScopedSpan span(&ref[0], "core.clone", 0);
          lsd::Status s = db.CloneInto(&clone);
          if (!s.ok()) report.Fail("ref1m clone: " + s.ToString());
        }
        clone.Assert("SIDE-S", "SIDE", "SIDE-T");
        lsd::Status s = clone.View().status();
        {
          ScopedSpan span(&ref[0], "core.warm", 0);
          if (s.ok()) s = clone.Warm();
        }
        if (!s.ok()) report.Fail("ref1m warm: " + s.ToString());
      }
    }
    SpanStats ref_stats(ref);
    report.Add("core.clone_ms.ref1m", ref_stats.MedianMs("core.clone"), "ms");
    report.Add("core.warm_ms.ref1m", ref_stats.MedianMs("core.warm"), "ms");
    std::error_code ec;
    fs::create_directories(args.workdir, ec);
    const std::string dump = args.workdir + "/spans-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    std::vector<const Tracer*> all_tracers;
    for (const Tracer& t : tracers) all_tracers.push_back(&t);
    if (!WriteSpans(dump, all_tracers)) report.Fail("cannot write " + dump);
  }

  client.sessions.clear();
  first.reset();
  tip.reset();
  DropEnv(&env);
  if (!args.trace) {
    // The second half of the set-ups, each dropped at once.
    for (int rep = 0; rep < kSetupReps / 2; ++rep) {
      if (!set_up()) return 1;
    }
    DropEnv(&env);
    std::string reps = spec.name + " set-ups (s):";
    for (double s : setup_s) {
      char value[32];
      std::snprintf(value, sizeof(value), " %.4f", s);
      reps += value;
    }
    report.Note(reps);
    report.Add("setup_s", Median(setup_s), "s");
  }
  std::error_code ec;
  fs::remove_all(workdir, ec);
  const double probe_end = HostProbeMs();
  {
    char line[160];
    std::snprintf(line, sizeof(line), "host probe: %.3f ms at start, %.3f ms at end",
                  probe_start, probe_end);
    report.Note(line);
  }
  if (args.trace) report.Add("host.probe_ms", (probe_start + probe_end) / 2, "ms");
  report.Print(attempted, failed);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lsd_perfbench --workload browse|write|mixed --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--workdir") {
      args.workdir = value;
    } else {
      return perfbench::Usage();
    }
  }
  auto spec = perfbench::FindWorkload(args.workload);
  if (!spec.has_value() || args.seconds <= 0) return perfbench::Usage();
  return perfbench::Run(args, *spec);
}
