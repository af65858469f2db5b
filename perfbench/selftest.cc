// Shows that the benchmark's checks can fail: each check first accepts a
// real output, then must reject a copy of it with one corruption.  Exits 0
// only when every check does both.
//
//   perfbench_selftest
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "net/topology.h"
#include "sweep/fingerprint.h"
#include "workload/static_workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(const char* what, const std::string& on_real,
            const std::string& on_corrupted) {
  const bool ok = on_real.empty() && !on_corrupted.empty();
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!on_real.empty()) {
    std::printf("  rejected the real output: %s\n", on_real.c_str());
  }
  if (on_corrupted.empty()) std::printf("  accepted the corrupted output\n");
  if (ok) std::printf("  rejected: %s\n", on_corrupted.c_str());
  if (!ok) ++failures;
}

/// The run with one epoch replaced by `edit(copy of that epoch)`, applied
/// to the first epoch for which `edit` returns true.
template <typename Edit>
ttmqo::RunResult Corrupt(const ttmqo::RunResult& run, Edit edit) {
  ttmqo::RunResult out = run;
  for (const ttmqo::EpochResult* r : run.results.All()) {
    ttmqo::EpochResult copy = *r;
    if (edit(copy)) {
      out.results.OnResult(copy);
      return out;
    }
  }
  std::printf("FAIL no epoch to corrupt\n");
  ++failures;
  return out;
}

int Main() {
  // A lossless 4x4 WORKLOAD_C run: acquisition rows and MAX aggregates.
  ttmqo::RunUnit unit;
  unit.label = "selftest grid=4 workload=C mode=ttmqo";
  unit.config.grid_side = 4;
  unit.config.duration_ms = 20 * 4096;
  unit.config.seed = 7;
  unit.schedule = ttmqo::StaticSchedule(ttmqo::WorkloadC());
  RadioTally tally;
  unit.config.obs.observers.push_back(&tally);
  const ttmqo::RunResult run =
      ttmqo::RunExperiment(unit.config, unit.schedule);
  const std::string sound = CheckSoundness(unit, run);
  const std::string exact = CheckExact(unit, run, false);
  if (!exact.empty()) {
    std::printf("FAIL oracle on the real run: %s\n", exact.c_str());
    ++failures;
  }

  const ttmqo::RunResult row_changed =
      Corrupt(run, [](ttmqo::EpochResult& r) {
        for (ttmqo::Reading& row : r.rows) {
          for (ttmqo::Attribute a : {ttmqo::Attribute::kLight,
                                     ttmqo::Attribute::kTemp}) {
            if (row.Has(a)) {
              row.Set(a, row.GetOrThrow(a) + 0.5);
              return true;
            }
          }
        }
        return false;
      });
  Expect("soundness: one row value changed", sound,
         CheckSoundness(unit, row_changed));

  const ttmqo::RunResult max_raised =
      Corrupt(run, [](ttmqo::EpochResult& r) {
        for (auto& [spec, value] : r.aggregates) {
          if (spec.op == ttmqo::AggregateOp::kMax && value.has_value()) {
            value = ttmqo::AttributeRange(spec.attribute).hi() + 1.0;
            return true;
          }
        }
        return false;
      });
  Expect("soundness: one MAX above the oracle range", sound,
         CheckSoundness(unit, max_raised));

  Expect("conservation: one transmit duration left out",
         CheckConservation(tally.tx_ms, run.summary),
         CheckConservation(tally.tx_ms - tally.first_tx_ms, run.summary));

  // Tier 1: WORKLOAD_B's pairwise different predicates leave several
  // synthetic queries, so some synthetic cannot serve some member.
  const ttmqo::Topology topology = ttmqo::Topology::Grid(4);
  const ttmqo::SelectivityEstimator estimator;
  const ttmqo::CostModel cost(topology, ttmqo::RadioParams{}, estimator);
  ttmqo::BaseStationOptimizer optimizer(cost);
  std::vector<ttmqo::Query> users = ttmqo::WorkloadB();
  for (const ttmqo::Query& q : users) optimizer.InsertUserQuery(q);
  const std::vector<Assignment> real = Assignments(optimizer, users);
  std::vector<Assignment> reassigned = real;
  bool moved = false;
  for (std::size_t i = 0; i < reassigned.size() && !moved; ++i) {
    for (const Assignment& other : real) {
      if (!Serves(other.synthetic, reassigned[i].user)) {
        reassigned[i].synthetic = other.synthetic;
        moved = true;
        break;
      }
    }
  }
  if (!moved) {
    std::printf("FAIL every synthetic serves every member\n");
    ++failures;
  }
  Expect("tier 1: one member reassigned to a non-covering synthetic",
         CheckCoverage(real), CheckCoverage(reassigned));

  const std::string fingerprint = ttmqo::FingerprintRun(run);
  std::string flipped = fingerprint;
  flipped[flipped.size() / 2] ^= 0x01;
  Expect("fingerprint: one byte flipped",
         CheckSameFingerprint(fingerprint, ttmqo::FingerprintRun(run)),
         CheckSameFingerprint(fingerprint, flipped));

  std::printf("%s\n", failures == 0 ? "selftest: all checks can fail"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
