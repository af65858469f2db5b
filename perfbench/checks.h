// Correctness checks of the benchmark.  Every check recomputes what the
// program should have produced from the field model, the fault plan and the
// topology alone, and compares it with what the program did produce.  Each
// returns an empty string when the output passes and a one-line reason when
// it does not, so selftest.cc can feed it corrupted copies of real outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bs/rewriter.h"
#include "net/observer.h"
#include "sweep/sweep.h"

namespace perfbench {

/// A benchmark-owned radio observer: the per-layer radio counts, plus the
/// sum of every transmit duration (the conservation check's left side).
class RadioTally final : public ttmqo::NetworkObserver {
 public:
  void OnTransmit(ttmqo::SimTime time, const ttmqo::Message& msg,
                  double duration_ms, bool retransmission) override;
  void OnDrop(ttmqo::SimTime time, const ttmqo::Message& msg) override;
  void OnLinkDrop(ttmqo::SimTime time, const ttmqo::Message& msg,
                  ttmqo::NodeId receiver) override;

  std::uint64_t attempts = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t drops = 0;
  std::uint64_t link_drops = 0;
  double tx_ms = 0.0;
  /// The first transmit duration seen (the self-test leaves it out).
  double first_tx_ms = 0.0;
};

/// Every delivered acquisition row equals a fresh field sample of a node
/// that is alive at the epoch and matches the predicates, with no node twice
/// in one epoch; every MAX/MIN/AVG lies within the range of the matching
/// alive nodes' values and every COUNT is at most their number; an annotated
/// acquisition epoch claims no fewer contributors than rows and no more than
/// alive nodes.
std::string CheckSoundness(const ttmqo::RunUnit& unit,
                           const ttmqo::RunResult& run);

/// Every delivered epoch equals the oracle's answer over the alive nodes.
/// `only_full_coverage` restricts the check to epochs annotated with
/// coverage 1.0 (the arq profile's claim of a complete answer).
std::string CheckExact(const ttmqo::RunUnit& unit, const ttmqo::RunResult& run,
                       bool only_full_coverage);

/// The observer's summed transmit durations equal the ledger's total.
std::string CheckConservation(double observed_tx_ms,
                              const ttmqo::RunSummary& summary);

/// Byte equality of two run fingerprints.
std::string CheckSameFingerprint(const std::string& expected,
                                 const std::string& actual);

/// One active user query and the network query the optimizer says serves
/// it.
struct Assignment {
  ttmqo::Query user;
  ttmqo::Query synthetic;
};

/// Reads every active user query's serving synthetic query.
std::vector<Assignment> Assignments(
    const ttmqo::BaseStationOptimizer& optimizer,
    const std::vector<ttmqo::Query>& active);

/// True when `synthetic` can answer `user`: it covers it (Covers), or it is
/// the user's own query under another id.  Covers alone is not enough: an
/// acquisition query with a predicate on an attribute it does not project
/// does not cover itself, and such a query runs as its own synthetic.
bool Serves(const ttmqo::Query& synthetic, const ttmqo::Query& user);

/// Every active user query is served by the synthetic query holding it.
std::string CheckCoverage(const std::vector<Assignment>& assignments);

/// Tier-1 bookkeeping: the optimizer holds exactly the stream's active
/// queries; each terminate call took one Algorithm 2 decision; every
/// inserted bundle (a user insert, or a member re-inserted by a rebuild)
/// ended in exactly one covered/standalone decision.
std::string CheckDecisionCounts(const ttmqo::BaseStationOptimizer& optimizer,
                                std::size_t active, std::uint64_t inserts,
                                std::uint64_t terminates,
                                std::uint64_t reinserted_members);

/// Byte equality of two tier-1 action lists (abort ids, injected queries).
std::string CheckSameActions(const ttmqo::BaseStationOptimizer::Actions& a,
                             const ttmqo::BaseStationOptimizer::Actions& b);

}  // namespace perfbench
