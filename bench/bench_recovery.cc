// bench_recovery — recovery time versus log size, with and without
// checkpoints.
//
// For each record count the bench writes a durable store twice, through
// batched group commits: once as a pure WAL (checkpoint_bytes = 0, so
// recovery replays every record) and once with auto-checkpointing
// (replay is bounded by the records since the last checkpoint; the
// snapshot carries the rest). It then measures cold LooseDb::Recover()
// time (best of three) — the snapshot load plus log replay that
// SharedStore::OpenDurable runs before it opens the log — and reports
// what recovery did.
//
// Not a google-benchmark suite: each measurement is one cold recovery
// against files just written, and the interesting output is the
// recovery-stats breakdown next to the timing, not iteration throughput.
//
//   bench_recovery [--records 1000,4000,16000] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "server/shared_store.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct RunResult {
  size_t records = 0;
  bool checkpoints = false;
  double recover_ms = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
  size_t records_replayed = 0;
  size_t segments_replayed = 0;
  bool snapshot_loaded = false;
};

lsd::SharedStoreDurability Durability(bool checkpoints) {
  lsd::SharedStoreDurability durability;
  durability.sync = lsd::WalSync::kFlush;
  durability.segment_bytes = 1ull << 20;
  durability.checkpoint_bytes = checkpoints ? 64ull << 10 : 0;
  return durability;
}

// Facts per commit group: one WAL append each, and a checkpoint check
// after every group.
constexpr size_t kBatch = 256;

// Synthetic unique facts: ~30 bytes of WAL record each, a fresh entity
// pair per fact so replay exercises interning too.
void Fill(lsd::SharedStore& store, size_t records) {
  for (size_t start = 0; start < records; start += kBatch) {
    const size_t end = std::min(records, start + kBatch);
    auto committed = store.Commit([start, end](lsd::LooseDb& db) {
      for (size_t i = start; i < end; ++i) {
        db.Assert("E-" + std::to_string(i), "REL-" + std::to_string(i % 16),
                  "V-" + std::to_string(i));
      }
      return lsd::Status::OK();
    });
    if (!committed.ok()) {
      std::fprintf(stderr, "commit failed: %s\n",
                   committed.status().ToString().c_str());
      std::exit(1);
    }
  }
}

RunResult RunOne(const fs::path& dir, size_t records, bool checkpoints) {
  const std::string prefix =
      (dir / (std::string(checkpoints ? "ckpt" : "wal") + "-" +
              std::to_string(records)))
          .string();
  {
    lsd::SharedStore store;
    lsd::Status opened = store.OpenDurable(prefix, Durability(checkpoints));
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.ToString().c_str());
      std::exit(1);
    }
    Fill(store, records);
  }

  RunResult result;
  result.records = records;
  result.checkpoints = checkpoints;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(fs::path(prefix).filename().string(), 0) != 0) continue;
    if (name.find(".wal.") != std::string::npos) {
      result.wal_bytes += entry.file_size();
    } else if (name.size() > 5 &&
               name.compare(name.size() - 5, 5, ".snap") == 0) {
      result.snapshot_bytes += entry.file_size();
    }
  }

  result.recover_ms = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    lsd::LooseDb db;
    auto t0 = Clock::now();
    lsd::Status recovered = db.Recover(prefix);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.ToString().c_str());
      std::exit(1);
    }
    if (ms < result.recover_ms) result.recover_ms = ms;
    const lsd::RecoveryStats& stats = db.last_recovery();
    result.records_replayed = stats.records_replayed;
    result.segments_replayed = stats.segments_replayed;
    result.snapshot_loaded = stats.snapshot_loaded;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> record_counts = {1000, 4000, 16000};
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--records" && i + 1 < argc) {
      record_counts.clear();
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        record_counts.push_back(static_cast<size_t>(
            std::atoll(list.substr(pos, comma - pos).c_str())));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--records 1000,4000,16000] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::error_code ec;
  fs::path dir =
      fs::temp_directory_path() / ("lsd_bench_recovery_" +
                                   std::to_string(::getpid()));
  fs::create_directories(dir, ec);

  std::printf("# bench_recovery: cold Recover() time (best of 3) vs log "
              "size, checkpoints off/on\n");
  std::printf("%9s %6s %10s %10s %10s %10s %9s\n", "records", "ckpt",
              "recover_ms", "wal_bytes", "snap_bytes", "replayed",
              "segments");

  std::vector<RunResult> results;
  for (size_t records : record_counts) {
    for (bool checkpoints : {false, true}) {
      RunResult r = RunOne(dir, records, checkpoints);
      results.push_back(r);
      std::printf("%9zu %6s %10.2f %10llu %10llu %10zu %9zu\n", r.records,
                  r.checkpoints ? "on" : "off", r.recover_ms,
                  static_cast<unsigned long long>(r.wal_bytes),
                  static_cast<unsigned long long>(r.snapshot_bytes),
                  r.records_replayed, r.segments_replayed);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"comment\": \"bench_recovery: cold LooseDb::Recover() "
           "time (best of 3) vs WAL size, the log written by 256-fact "
           "group commits with checkpoint_bytes=0 vs 64KiB; regenerate "
           "with tools/bench_json.sh. With "
           "checkpoints the replayed-record count (and so recovery "
           "time) stays bounded while the pure-WAL variant replays "
           "everything.\",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"records\": %zu, \"checkpoints\": %s, "
          "\"recover_ms\": %.2f, \"wal_bytes\": %llu, "
          "\"snapshot_bytes\": %llu, \"records_replayed\": %zu, "
          "\"segments_replayed\": %zu, \"snapshot_loaded\": %s}%s\n",
          r.records, r.checkpoints ? "true" : "false", r.recover_ms,
          static_cast<unsigned long long>(r.wal_bytes),
          static_cast<unsigned long long>(r.snapshot_bytes),
          r.records_replayed, r.segments_replayed,
          r.snapshot_loaded ? "true" : "false",
          i + 1 < results.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  fs::remove_all(dir, ec);
  return 0;
}
