// lsd_shell: an interactive browser for loosely structured databases —
// the user-facing surface the paper describes: standard queries,
// navigation, probing with retraction menus, and the Sec 6.1 operators.
//
//   $ ./lsd_shell [path-prefix]       # optional snapshot+WAL to open
//
// A REPL over an in-process SharedStore and one ServerSession: every
// line goes to ServerSession::Execute, the interpreter lsd_serve runs
// for its clients, so the shell and the server share one grammar (type
// `help`). With a prefix the store is durable: each write commits to
// its log, and `checkpoint` snapshots it. Local to the REPL:
//   timeout N                         per-command deadline (0 disables),
//                                     shown by `stats` and `help`
//   quit, exit
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "server/session.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  lsd::SharedStore store;
  if (argc > 1) {
    // kFlush: a commit survives a crash of the shell, not of the host.
    lsd::SharedStoreDurability durability;
    durability.sync = lsd::WalSync::kFlush;
    lsd::Status s = store.OpenDurable(argv[1], durability);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", argv[1], s.ToString().c_str());
      return 1;
    }
    std::printf("opened %s (%zu facts): %s\n", argv[1],
                store.snapshot()->db().store().size(),
                store.last_recovery().ToString().c_str());
  }
  std::printf("lsd shell — type 'help' for commands\n");
  // `timeout N` arms each command's QueryBudget, which ExecuteRequest
  // charges as the server's worker does; `stats` reports what the
  // governance state counted.
  lsd::GovernanceState governance;
  lsd::ServerSession session(1, &store);
  session.set_governance(&governance);
  int timeout_ms = 0;  // 0 = ungoverned

  std::string line;
  while (std::printf("lsd> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in{std::string(lsd::StripWhitespace(line))};
    std::string cmd;
    in >> cmd;
    cmd = lsd::AsciiToLower(cmd);
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "timeout") {
      int n = 0;
      if (in >> n && n >= 0) {
        timeout_ms = n;
        if (n > 0) {
          std::printf("timeout %d ms\n", n);
        } else {
          std::printf("timeout disabled\n");
        }
      } else {
        std::printf("usage: timeout MILLISECONDS (0 disables)\n");
      }
      continue;
    }

    std::unique_ptr<lsd::QueryBudget> budget;
    if (timeout_ms > 0) {
      budget = std::make_unique<lsd::QueryBudget>(
          std::chrono::milliseconds(timeout_ms));
    }
    lsd::StatusOr<std::string> result =
        session.ExecuteRequest(line, /*mutation=*/false, budget.get());
    if (!result.ok()) {
      std::printf("! %s\n", result.status().ToString().c_str());
      continue;
    }
    std::fputs(result->c_str(), stdout);
    // The REPL's own setting, beside what the session reports.
    if (cmd == "stats") {
      if (timeout_ms > 0) {
        std::printf("timeout:        %d ms per command\n", timeout_ms);
      } else {
        std::printf("timeout:        none (set with 'timeout N')\n");
      }
    } else if (cmd == "help") {
      std::printf("          timeout N (shell: per-command deadline)\n");
    }
  }
  return 0;
}
