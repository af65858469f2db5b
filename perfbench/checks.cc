#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "core/bs/integration.h"
#include "net/topology.h"
#include "query/result.h"

namespace perfbench {
namespace {

using ttmqo::AggregateOp;
using ttmqo::EpochResult;
using ttmqo::NodeId;
using ttmqo::Query;
using ttmqo::QueryId;
using ttmqo::QueryKind;
using ttmqo::Reading;
using ttmqo::SimTime;

/// Everything the oracle needs, rebuilt from the run's configuration only.
struct Ground {
  explicit Ground(const ttmqo::RunUnit& unit)
      : topology(ttmqo::Topology::Grid(unit.config.grid_side,
                                       unit.config.grid_spacing_feet,
                                       unit.config.radio.range_feet)),
        field(ttmqo::MakeFieldModel(unit.config.field, unit.config.seed)),
        plan(unit.config.faults) {
    for (const ttmqo::NodeFailure& f : unit.config.failures) {
      plan.AddCrash(f.node, f.time);
    }
    for (const ttmqo::WorkloadEvent& e : unit.schedule) {
      if (e.query.has_value()) queries.emplace(e.id, *e.query);
    }
  }

  Reading Sample(const Query& q, NodeId node, SimTime t) const {
    return field->SampleReading(node, topology.PositionOf(node),
                                q.AcquiredAttributes(), t);
  }

  /// The answer `q` has at `t` when every node alive then reports.
  EpochResult Oracle(const Query& q, SimTime t) const {
    EpochResult truth;
    truth.query = q.id();
    truth.epoch_time = t;
    truth.kind = q.kind();
    std::vector<ttmqo::PartialAggregate> partials;
    for (const ttmqo::AggregateSpec& spec : q.aggregates()) {
      partials.emplace_back(spec);
    }
    for (NodeId node = 1; node < topology.size(); ++node) {
      if (!plan.AliveAt(node, t)) continue;
      const Reading sample = Sample(q, node, t);
      if (!q.predicates().Matches(sample)) continue;
      if (q.kind() == QueryKind::kAcquisition) {
        Reading row(node, t);
        for (ttmqo::Attribute a : q.attributes()) {
          row.Set(a, sample.GetOrThrow(a));
        }
        truth.rows.push_back(std::move(row));
      } else {
        for (ttmqo::PartialAggregate& p : partials) {
          p.Accumulate(sample.GetOrThrow(p.spec().attribute));
        }
      }
    }
    for (const ttmqo::PartialAggregate& p : partials) {
      truth.aggregates.emplace_back(p.spec(), p.Finalize());
    }
    return truth;
  }

  std::size_t AliveSensors(SimTime t) const {
    std::size_t alive = 0;
    for (NodeId node = 1; node < topology.size(); ++node) {
      if (plan.AliveAt(node, t)) ++alive;
    }
    return alive;
  }

  ttmqo::Topology topology;
  std::unique_ptr<ttmqo::FieldModel> field;
  ttmqo::FaultPlan plan;
  std::map<QueryId, Query> queries;
};

std::string Where(const ttmqo::RunUnit& unit, const EpochResult& r) {
  std::ostringstream out;
  out << unit.label << " query " << r.query << " epoch " << r.epoch_time
      << ": ";
  return out.str();
}

}  // namespace

void RadioTally::OnTransmit(ttmqo::SimTime, const ttmqo::Message&,
                            double duration_ms, bool retransmission) {
  if (attempts == 0) first_tx_ms = duration_ms;
  ++attempts;
  if (retransmission) ++retransmissions;
  tx_ms += duration_ms;
}

void RadioTally::OnDrop(ttmqo::SimTime, const ttmqo::Message&) { ++drops; }

void RadioTally::OnLinkDrop(ttmqo::SimTime, const ttmqo::Message&,
                            ttmqo::NodeId) {
  ++link_drops;
}

std::string CheckSoundness(const ttmqo::RunUnit& unit,
                           const ttmqo::RunResult& run) {
  const Ground g(unit);
  for (const EpochResult* r : run.results.All()) {
    const auto qit = g.queries.find(r->query);
    if (qit == g.queries.end()) return Where(unit, *r) + "unknown query";
    const Query& q = qit->second;
    const SimTime t = r->epoch_time;
    // Aggregation epochs are left out: their count comes from the partial
    // aggregates' record counts, which exceed the alive nodes on some seeds
    // (CHANGES.md, FOUND).
    if (r->contributing_nodes >= 0 && q.kind() == QueryKind::kAcquisition &&
        (static_cast<std::size_t>(r->contributing_nodes) < r->rows.size() ||
         static_cast<std::size_t>(r->contributing_nodes) > g.AliveSensors(t))) {
      return Where(unit, *r) + "contributing_nodes " +
             std::to_string(r->contributing_nodes) + " outside [rows " +
             std::to_string(r->rows.size()) + ", alive " +
             std::to_string(g.AliveSensors(t)) + "]";
    }
    if (q.kind() == QueryKind::kAcquisition) {
      NodeId previous = 0;
      for (const Reading& row : r->rows) {
        const NodeId node = row.node();
        if (node == 0 || node >= g.topology.size()) {
          return Where(unit, *r) + "row from a node outside the deployment";
        }
        if (node <= previous) {
          return Where(unit, *r) + "node repeated or rows out of order";
        }
        previous = node;
        if (!g.plan.AliveAt(node, t)) {
          return Where(unit, *r) + "row from a dead node";
        }
        const Reading sample = g.Sample(q, node, t);
        if (!q.predicates().Matches(sample)) {
          return Where(unit, *r) + "row fails the predicates";
        }
        for (ttmqo::Attribute a : q.attributes()) {
          if (row.Get(a) != sample.Get(a)) {
            return Where(unit, *r) + "row value differs from the field";
          }
        }
      }
      continue;
    }
    for (const auto& [spec, value] : r->aggregates) {
      if (!value.has_value()) continue;
      double lo = INFINITY;
      double hi = -INFINITY;
      std::size_t matching = 0;
      for (NodeId node = 1; node < g.topology.size(); ++node) {
        if (!g.plan.AliveAt(node, t)) continue;
        const Reading sample = g.Sample(q, node, t);
        if (!q.predicates().Matches(sample)) continue;
        const double v = sample.GetOrThrow(spec.attribute);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        ++matching;
      }
      if (matching == 0) {
        return Where(unit, *r) + "aggregate value with no matching node";
      }
      const double v = *value;
      const double slack = 1e-9 * std::max(1.0, std::fabs(hi));
      switch (spec.op) {
        case AggregateOp::kMax:
        case AggregateOp::kMin:
        case AggregateOp::kAvg:
          if (v < lo - slack || v > hi + slack) {
            return Where(unit, *r) + spec.ToString() +
                   " outside the matching nodes' range";
          }
          break;
        case AggregateOp::kCount:
          if (v < 0 || v > static_cast<double>(matching)) {
            return Where(unit, *r) + "COUNT above the matching nodes";
          }
          break;
        case AggregateOp::kSum:
        case AggregateOp::kVar:
          break;
      }
    }
  }
  return {};
}

namespace {

std::string EpochDiff(const Ground& g, const ttmqo::RunUnit& unit,
                      const EpochResult& r) {
  const auto qit = g.queries.find(r.query);
  if (qit == g.queries.end()) return Where(unit, r) + "unknown query";
  ttmqo::ResultLog expected;
  ttmqo::ResultLog actual;
  expected.OnResult(g.Oracle(qit->second, r.epoch_time));
  actual.OnResult(r);
  const auto diff =
      ttmqo::CompareResultLogs(expected, actual, {qit->second}, 1e-6);
  return diff.has_value() ? Where(unit, r) + *diff : std::string();
}

}  // namespace

std::string CheckExact(const ttmqo::RunUnit& unit, const ttmqo::RunResult& run,
                       bool only_full_coverage) {
  const Ground g(unit);
  for (const EpochResult* r : run.results.All()) {
    if (only_full_coverage && r->coverage != 1.0) continue;
    std::string err = EpochDiff(g, unit, *r);
    if (!err.empty()) return err;
  }
  return {};
}

std::string CheckConservation(double observed_tx_ms,
                              const ttmqo::RunSummary& summary) {
  const double total = summary.total_transmit_ms;
  if (std::fabs(observed_tx_ms - total) > 1e-9 * std::max(1.0, total)) {
    std::ostringstream out;
    out.precision(17);
    out << "observer transmit sum " << observed_tx_ms
        << " ms != ledger total " << total << " ms";
    return out.str();
  }
  return {};
}

std::string CheckSameFingerprint(const std::string& expected,
                                 const std::string& actual) {
  if (expected == actual) return {};
  const auto at = std::mismatch(expected.begin(), expected.end(),
                                actual.begin(), actual.end());
  return "fingerprints differ at byte " +
         std::to_string(at.first - expected.begin());
}

std::vector<Assignment> Assignments(
    const ttmqo::BaseStationOptimizer& optimizer,
    const std::vector<Query>& active) {
  std::vector<Assignment> out;
  out.reserve(active.size());
  for (const Query& user : active) {
    const ttmqo::SyntheticQuery* sq = optimizer.SyntheticOf(user.id());
    if (sq == nullptr) continue;  // CheckDecisionCounts reports the gap
    out.push_back({user, sq->query});
  }
  return out;
}

bool Serves(const Query& synthetic, const Query& user) {
  return ttmqo::Covers(synthetic, user) ||
         synthetic.WithId(user.id()).ToSql() == user.ToSql();
}

std::string CheckCoverage(const std::vector<Assignment>& assignments) {
  for (const Assignment& a : assignments) {
    if (!Serves(a.synthetic, a.user)) {
      return "user query " + std::to_string(a.user.id()) +
             " is not served by synthetic query " +
             std::to_string(a.synthetic.id());
    }
  }
  return {};
}

std::string CheckDecisionCounts(const ttmqo::BaseStationOptimizer& optimizer,
                                std::size_t active, std::uint64_t inserts,
                                std::uint64_t terminates,
                                std::uint64_t reinserted_members) {
  const auto& d = optimizer.decision_stats();
  if (optimizer.NumUserQueries() != active) {
    return "optimizer holds " + std::to_string(optimizer.NumUserQueries()) +
           " user queries, the stream " + std::to_string(active);
  }
  if (d.retired + d.rebuilt + d.kept != terminates) {
    return "terminate decisions do not sum to the terminate calls";
  }
  if (d.covered + d.standalone != inserts + reinserted_members) {
    return "insert decisions do not sum to the inserted bundles";
  }
  return {};
}

std::string CheckSameActions(const ttmqo::BaseStationOptimizer::Actions& a,
                             const ttmqo::BaseStationOptimizer::Actions& b) {
  if (a.abort != b.abort) return "abort lists differ";
  if (a.inject.size() != b.inject.size()) return "inject lists differ";
  for (std::size_t i = 0; i < a.inject.size(); ++i) {
    if (a.inject[i].id() != b.inject[i].id() ||
        a.inject[i].ToSql() != b.inject[i].ToSql()) {
      return "injected query " + std::to_string(a.inject[i].id()) + " differs";
    }
  }
  return {};
}

}  // namespace perfbench
