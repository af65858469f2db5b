// The TTMQO benchmark program.  One process runs one named workload for a
// fixed number of wall-clock seconds, checks the program's outputs against
// computations made apart from it (checks.h), and prints one JSON line:
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// --trace=0 reports the end-to-end metrics; --trace=1 is a separate run of
// the same workload that reports the per-layer metrics.  README.md lists
// the workloads, every metric and the layer it belongs to.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "fault/fault_plan.h"
#include "metrics/registry.h"
#include "net/topology.h"
#include "obs/span.h"
#include "query/engine.h"
#include "reliable/profile.h"
#include "sweep/fingerprint.h"
#include "sweep/sweep.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace perfbench {
namespace {

using ttmqo::OptimizationMode;
using ttmqo::Query;
using ttmqo::QueryId;
using ttmqo::RunUnit;
using ttmqo::SimTime;
using ttmqo::WorkloadEvent;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, `p` in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// SplitMix64: independent per-figure seeds from the one --seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

unsigned ParallelJobs() { return std::min(ttmqo::HardwareJobs(), 4u); }

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  std::string Json(std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (ok() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ", " : "") << '"' << metrics_[i].name
          << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::string error_;
};

// ------------------------------------------------------------ workloads

struct SimWorkload {
  std::vector<RunUnit> units;
  /// (baseline, ttmqo) unit pairs for the paper's claim.
  std::vector<std::pair<std::size_t, std::size_t>> claims;
  /// Also run every round on ParallelJobs() threads.
  bool parallel = false;
};

/// One simulation run.  Every run observes the i.i.d. uniform field: with
/// the correlated field's large-scale gradients the predicates'
/// selectivity, and so the amount of work, moves from seed to seed.
RunUnit MakeUnit(std::string label, std::size_t side, OptimizationMode mode,
                 SimTime duration, std::uint64_t seed, double collisions,
                 std::vector<WorkloadEvent> schedule) {
  RunUnit unit;
  unit.label = std::move(label);
  unit.config.grid_side = side;
  unit.config.mode = mode;
  unit.config.duration_ms = duration;
  unit.config.seed = seed;
  unit.config.channel.collision_prob = collisions;
  unit.config.field = ttmqo::FieldKind::kUniform;
  unit.schedule = std::move(schedule);
  return unit;
}

void AddPair(SimWorkload& w, const std::string& label, std::size_t side,
             SimTime duration, std::uint64_t seed, double collisions,
             const std::vector<WorkloadEvent>& schedule) {
  const std::size_t base = w.units.size();
  for (OptimizationMode mode :
       {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
    w.units.push_back(MakeUnit(
        label + " mode=" + std::string(ttmqo::OptimizationModeName(mode)),
        side, mode, duration, seed, collisions, schedule));
  }
  w.claims.emplace_back(base, base + 1);
}

/// Figure 4's §4.3 random model: 40 s mean inter-arrival, durations set by
/// the target concurrency (Little's law), random selectivities.
std::vector<WorkloadEvent> DynamicArrivals(std::size_t queries,
                                           double concurrency,
                                           std::uint64_t seed,
                                           SimTime* end) {
  ttmqo::QueryModelParams params;
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;
  ttmqo::RandomQueryModel model(params, seed);
  auto schedule = ttmqo::DynamicSchedule(model, queries, 40'000.0,
                                         concurrency * 40'000.0,
                                         seed ^ 0x5eedULL);
  *end = 0;
  for (const WorkloadEvent& e : schedule) *end = std::max(*end, e.time);
  return schedule;
}

/// Figure 5's eight same-epoch queries with a fixed acquisition share.
std::vector<Query> Figure5Queries(double acquisition_fraction,
                                  double selectivity, std::uint64_t seed) {
  ttmqo::QueryModelParams params;
  params.aggregation_fraction = 1.0 - acquisition_fraction;
  params.operators = {ttmqo::AggregateOp::kMax};
  params.epochs = {8192};
  params.predicate_selectivity = selectivity;
  params.acquisition_selects_all = true;
  ttmqo::RandomQueryModel model(params, seed);
  std::vector<Query> queries;
  auto num_agg =
      static_cast<std::size_t>(8.0 * (1.0 - acquisition_fraction) + 0.5);
  for (QueryId id = 1; id <= 8; ++id) {
    Query q = model.Next(id);
    while ((q.kind() == ttmqo::QueryKind::kAggregation && num_agg == 0) ||
           (q.kind() == ttmqo::QueryKind::kAcquisition &&
            (8 - id + 1) <= num_agg)) {
      q = model.Next(id);
    }
    if (q.kind() == ttmqo::QueryKind::kAggregation) --num_agg;
    queries.push_back(std::move(q));
  }
  return queries;
}

// The query sets are fixed, as in the paper's figures (the seeds are the
// bench/ harnesses' defaults); --seed drives each run's master seed: the
// sensor field, the channel's contention and loss draws, ARQ jitter.  A
// query set drawn from --seed would make the amount of work, and so every
// metric, vary several-fold between seeds.
constexpr std::uint64_t kFigure4Queries = 17;
constexpr std::uint64_t kFigure5Queries = 5;
constexpr std::uint64_t kScalabilityQueries = 77;
constexpr std::uint64_t kLossyQueries = 17;

/// The cells behind Figure 3, Figure 4(d), Figure 5 and the scalability
/// table, with the settings of the bench/ harnesses that print them.
SimWorkload PaperFigures(std::uint64_t seed) {
  SimWorkload w;
  w.parallel = true;
  const std::uint64_t s3 = Mix(seed, 3);
  for (std::size_t side : {4, 8}) {
    for (const char* name : {"A", "B", "C"}) {
      const std::size_t base = w.units.size();
      for (OptimizationMode mode :
           {OptimizationMode::kBaseline, OptimizationMode::kBaseStationOnly,
            OptimizationMode::kInNetworkOnly, OptimizationMode::kTwoTier}) {
        w.units.push_back(MakeUnit(
            "fig3 grid=" + std::to_string(side) + " workload=" + name +
                " mode=" + std::string(ttmqo::OptimizationModeName(mode)),
            side, mode, 40 * 12288, s3, 0.02,
            ttmqo::StaticSchedule(ttmqo::WorkloadByName(name))));
      }
      w.claims.emplace_back(base, base + 3);
    }
  }
  const std::uint64_t s4 = Mix(seed, 4);
  for (double concurrency : {4.0, 8.0, 16.0}) {
    SimTime end = 0;
    const auto schedule =
        DynamicArrivals(60, concurrency, kFigure4Queries, &end);
    AddPair(w, "fig4d concurrency=" + std::to_string(int(concurrency)), 4,
            end + 4 * 24576, s4, 0.02, schedule);
  }
  const std::uint64_t s5 = Mix(seed, 5);
  for (double sel : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    for (double acq : {1.0, 0.5, 0.0}) {
      std::ostringstream label;
      label << "fig5 selectivity=" << sel << " acquisition=" << acq;
      AddPair(w, label.str(), 4, 40 * 8192, s5, 0.03,
              ttmqo::StaticSchedule(
                  Figure5Queries(acq, sel, kFigure5Queries)));
    }
  }
  const std::uint64_t s6 = Mix(seed, 6);
  for (std::size_t side : {4, 6, 8, 10, 12}) {
    AddPair(w, "scalability grid=" + std::to_string(side), side, 20 * 12288,
            s6, 0.02, ttmqo::StaticSchedule(ttmqo::WorkloadC()));
  }
  for (QueryId count : {4, 8, 16, 32}) {
    ttmqo::QueryModelParams params;
    params.predicate_selectivity = 1.0;
    params.randomize_selectivity = true;
    ttmqo::RandomQueryModel model(params, kScalabilityQueries);
    std::vector<Query> queries;
    for (QueryId i = 1; i <= count; ++i) queries.push_back(model.Next(i));
    AddPair(w, "scalability queries=" + std::to_string(count), 8, 20 * 12288,
            s6, 0.02, ttmqo::StaticSchedule(queries));
  }
  return w;
}

/// WORKLOAD_C on a 40x40 grid (1,600 nodes), contention on.
SimWorkload LargeGrid(std::uint64_t seed) {
  SimWorkload w;
  const auto schedule = ttmqo::StaticSchedule(ttmqo::WorkloadC());
  for (OptimizationMode mode :
       {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
    w.units.push_back(MakeUnit(
        "grid=40 mode=" + std::string(ttmqo::OptimizationModeName(mode)), 40,
        mode, 4 * 12288, Mix(seed, 40), 0.02, schedule));
  }
  return w;
}

/// §4.3 random arrivals on a 10x10 grid under 10% link loss, one crash and
/// one outage, without and with the ARQ transport.
SimWorkload LossyArq(std::uint64_t seed) {
  SimWorkload w;
  SimTime end = 0;
  const auto schedule = DynamicArrivals(60, 12.0, kLossyQueries, &end);
  const SimTime duration = end + 4 * 24576;
  ttmqo::FaultPlan faults;
  faults.SetDefaultLinkLoss(0.10);
  faults.AddCrash(45, duration / 3);
  faults.AddOutage(78, duration / 2, duration / 2 + 120'000);
  for (ttmqo::ReliabilityProfile profile :
       {ttmqo::ReliabilityProfile::kOff, ttmqo::ReliabilityProfile::kArq}) {
    RunUnit unit = MakeUnit(
        "grid=10 reliability=" +
            std::string(ttmqo::ReliabilityProfileName(profile)),
        10, OptimizationMode::kTwoTier, duration, Mix(seed, 10), 0.0,
        schedule);
    unit.config.faults = faults;
    unit.config.reliability = profile;
    w.units.push_back(std::move(unit));
  }
  return w;
}

// ------------------------------------------------------- simulation runs

struct Pass {
  std::vector<ttmqo::TimedRunResult> results;
  ttmqo::PoolReport pool;
  double wall_s = 0.0;
};

Pass RunPass(const std::vector<RunUnit>& units, unsigned jobs) {
  Pass pass;
  const double t0 = NowS();
  pass.results = ttmqo::RunMany(units, jobs, &pass.pool);
  pass.wall_s = NowS() - t0;
  return pass;
}

/// Per-run radio observers and a metrics registry attached to copies of
/// the workload's units (the instrumented runs).
struct Instrumented {
  explicit Instrumented(const std::vector<RunUnit>& plain)
      : units(plain), tallies(plain.size()) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      units[i].config.obs.observers.push_back(&tallies[i]);
    }
  }
  void AttachRegistry() {
    for (std::size_t i = 0; i < units.size(); ++i) {
      units[i].config.obs.registry = &registry;
      units[i].config.obs.labels = {{"unit", std::to_string(i)}};
    }
  }
  double Counter(const std::string& name, ttmqo::MetricLabels extra = {}) {
    double sum = 0.0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      ttmqo::MetricLabels labels = units[i].config.obs.labels;
      labels.insert(labels.end(), extra.begin(), extra.end());
      sum += registry.GetCounter(name, labels).Value();
    }
    return sum;
  }

  std::vector<RunUnit> units;
  std::vector<RadioTally> tallies;
  ttmqo::MetricsRegistry registry;
};

/// Runs every check on one instrumented round; returns the first failure.
std::string CheckRound(const SimWorkload& w, const Pass& pass,
                       const std::vector<RadioTally>& tallies) {
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    const RunUnit& unit = w.units[i];
    const ttmqo::RunResult& run = pass.results[i].run;
    const RadioTally& tally = tallies[i];
    std::string err = CheckSoundness(unit, run);
    if (err.empty()) err = CheckConservation(tally.tx_ms, run.summary);
    if (err.empty() && unit.config.reliability ==
                           ttmqo::ReliabilityProfile::kArq) {
      err = CheckExact(unit, run, /*only_full_coverage=*/true);
    }
    if (err.empty() && tally.drops == 0 && tally.link_drops == 0) {
      err = CheckExact(unit, run, /*only_full_coverage=*/false);
    }
    if (!err.empty()) return err;
  }
  for (const auto& [base, opt] : w.claims) {
    if (!(pass.results[opt].run.summary.total_transmit_ms <
          pass.results[base].run.summary.total_transmit_ms)) {
      return w.units[opt].label + " transmits no less than " +
             w.units[base].label;
    }
  }
  return {};
}

std::vector<std::string> Fingerprints(const Pass& pass) {
  std::vector<std::string> out;
  for (const auto& r : pass.results) {
    out.push_back(ttmqo::FingerprintRun(r.run));
  }
  return out;
}

std::string CompareFingerprints(const std::vector<std::string>& expected,
                                const Pass& pass, const SimWorkload& w,
                                const char* what) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string err = CheckSameFingerprint(
        expected[i], ttmqo::FingerprintRun(pass.results[i].run));
    if (!err.empty()) return w.units[i].label + " (" + what + "): " + err;
  }
  return {};
}

double DeliveredRows(const Pass& pass) {
  double rows = 0.0;
  for (const auto& r : pass.results) {
    for (const ttmqo::EpochResult* e : r.run.results.All()) {
      rows += static_cast<double>(e->rows.size());
      for (const auto& [spec, value] : e->aggregates) {
        if (value.has_value()) rows += 1.0;
      }
    }
  }
  return rows;
}

double SpanMs(const ttmqo::obs::SpanSnapshot& snap, const char* name,
              bool estimated = false) {
  for (const auto& s : snap.totals) {
    if (s.name == name) {
      return static_cast<double>(estimated ? s.estimated_total_ns
                                           : s.total_ns) /
             1e6;
    }
  }
  return 0.0;
}

/// Per-layer figures of one traced simulation round.
struct SimLayers {
  std::map<std::string, double> counts;  // deterministic per seed
  std::map<std::string, double> times;   // wall time, reported as medians
};

SimLayers ReadLayers(const SimWorkload& w, Instrumented& ins, const Pass& pass,
                     const ttmqo::obs::SpanSnapshot& spans,
                     const Pass* parallel) {
  SimLayers l;
  auto& c = l.counts;
  double events = 0.0;
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    const ttmqo::RunResult& run = pass.results[i].run;
    const RadioTally& t = ins.tallies[i];
    events += static_cast<double>(run.events_executed);
    c["radio.attempts"] += static_cast<double>(t.attempts);
    c["radio.retransmissions"] += static_cast<double>(t.retransmissions);
    c["radio.drops"] += static_cast<double>(t.drops);
    c["radio.link_drops"] += static_cast<double>(t.link_drops);
    c["radio.tx_ms"] += t.tx_ms;
    const std::string mode(ttmqo::OptimizationModeName(w.units[i].config.mode));
    const auto& s = run.summary;
    c["radio.msgs.result." + mode] += static_cast<double>(s.result_messages);
    c["radio.msgs.propagation." + mode] +=
        static_cast<double>(s.propagation_messages);
    c["radio.msgs.abort." + mode] += static_cast<double>(s.abort_messages);
    c["radio.msgs.maintenance." + mode] +=
        static_cast<double>(s.maintenance_messages);
    c["radio.msgs.control." + mode] += static_cast<double>(s.control_messages);
    if (w.units[i].config.mode == OptimizationMode::kTwoTier ||
        w.units[i].config.mode == OptimizationMode::kBaseStationOnly) {
      c["tier1.synthetics"] += run.avg_network_queries;
    }
  }
  c["sim.events"] = events;
  c["delivery.rows"] = DeliveredRows(pass);
  for (const char* action :
       {"covered", "merged", "standalone", "retired", "rebuilt", "kept"}) {
    c[std::string("tier1.decisions.") + action] =
        ins.Counter("tier1_decisions_total", {{"action", action}});
  }
  c["tier1.coverage_hits"] = ins.Counter("tier1_index_coverage_hits_total");
  c["tier1.memo_hits"] = ins.Counter("tier1_index_memo_hits_total");
  c["tier1.pruned_candidates"] =
      ins.Counter("tier1_index_pruned_candidates_total");
  c["tier1.exact_evaluations"] =
      ins.Counter("tier1_index_exact_evaluations_total");
  c["tier1.cost_evaluations"] = ins.Counter("tier1_cost_evaluations_total");
  for (const char* name :
       {"sends", "retransmits", "acks_sent", "duplicates_dropped", "give_ups",
        "quarantines", "repair_requests", "repair_replies", "late_drops"}) {
    c[std::string("arq.") + name] =
        ins.Counter(std::string("arq_") + name + "_total");
  }

  auto& t = l.times;
  t["runner.setup_ms"] = SpanMs(spans, "phase.setup");
  t["runner.event_loop_ms"] = SpanMs(spans, "phase.event_loop");
  t["runner.summarize_ms"] = SpanMs(spans, "phase.summarize");
  t["tier2.disseminate_ms"] = SpanMs(spans, "tier2.disseminate");
  t["tier1.insert_ms"] = SpanMs(spans, "tier1.insert");
  t["tier1.terminate_ms"] = SpanMs(spans, "tier1.terminate");
  t["sampled.sim_event_ms"] = SpanMs(spans, "sim.event", true);
  t["sampled.net_deliver_ms"] = SpanMs(spans, "net.deliver", true);
  t["sampled.net_complete_attempt_ms"] =
      SpanMs(spans, "net.complete_attempt", true);
  const double loop_ns = t["runner.event_loop_ms"] * 1e6;
  t["sim.ns_per_event"] = events > 0 ? loop_ns / events : 0.0;
  t["sim.events_per_s"] = loop_ns > 0 ? events / (loop_ns / 1e9) : 0.0;
  const Pass& pooled = parallel != nullptr ? *parallel : pass;
  double busy = 0.0;
  for (const auto& worker : pooled.pool.workers) busy += worker.busy_ms;
  double max_task = 0.0;
  for (const auto& r : pooled.results) max_task = std::max(max_task, r.wall_ms);
  t["sweep.utilization"] = pooled.pool.Utilization();
  t["sweep.busy_ms"] = busy;
  t["sweep.max_task_ms"] = max_task;
  t["sweep.runs_per_s"] =
      static_cast<double>(pooled.results.size()) / pooled.pool.wall_ms * 1e3;
  t["trace.wall_s"] =
      pass.wall_s + (parallel != nullptr ? parallel->wall_s : 0.0);
  return l;
}

/// Runs a simulation workload; returns the operations (runs) attempted.
std::uint64_t RunSimWorkload(const SimWorkload& w, double start_s,
                             double seconds, bool trace, Report& report,
                             std::map<std::string, double>& layers) {
  const unsigned jobs = w.parallel ? ParallelJobs() : 0;
  // Set-up ends after one untimed round on each thread count: the checked
  // round (instrumented, serial) and a pool warm-up.
  Instrumented checked(w.units);
  const Pass first = RunPass(checked.units, 1);
  if (jobs > 0) RunPass(w.units, jobs);
  const double setup_s = NowS() - start_s;

  const double check_start = NowS();
  std::string err = CheckRound(w, first, checked.tallies);
  const std::vector<std::string> reference = Fingerprints(first);
  double check_s = NowS() - check_start;
  if (!err.empty()) report.Fail(err);

  std::uint64_t attempted = 0;
  std::vector<double> walls;
  std::map<std::string, std::vector<double>> times;
  std::map<std::string, double> counts;
  const double loop_start = NowS();
  do {
    Pass serial;
    Pass parallel;
    if (trace) {
      Instrumented ins(w.units);
      ins.AttachRegistry();
      ttmqo::obs::ResetSpans();
      serial = RunPass(ins.units, 1);
      const auto spans = ttmqo::obs::CollectSpans();
      if (jobs > 0) parallel = RunPass(w.units, jobs);
      const SimLayers l =
          ReadLayers(w, ins, serial, spans, jobs > 0 ? &parallel : nullptr);
      for (const auto& [name, value] : l.times) times[name].push_back(value);
      if (counts.empty()) {
        counts = l.counts;
      } else if (counts != l.counts) {
        report.Fail("per-layer counts changed between identical rounds");
      }
    } else {
      serial = RunPass(w.units, 1);
      if (jobs > 0) parallel = RunPass(w.units, jobs);
    }
    walls.push_back(serial.wall_s + parallel.wall_s);
    attempted += w.units.size() * (jobs > 0 ? 2 : 1);

    const double c0 = NowS();
    err = CompareFingerprints(reference, serial, w, "serial");
    if (err.empty() && jobs > 0) {
      err = CompareFingerprints(reference, parallel, w, "parallel");
    }
    if (!err.empty()) report.Fail(err);
    check_s += NowS() - c0;
  } while (NowS() - loop_start < seconds);

  double radio_ms = 0.0;
  for (const auto& r : first.results) {
    radio_ms += r.run.summary.total_transmit_ms;
  }
  if (!trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("wall_s", Median(walls), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("radio_tx_s", radio_ms / 1000.0, "s");
  } else {
    layers = counts;
    for (const auto& [name, values] : times) layers[name] = Median(values);
    layers["check.oracle_ms"] = check_s * 1000.0;
  }
  return attempted;
}

// --------------------------------------------------------------- tier 1

/// The §4.3 random model as an endless insert/terminate stream: Poisson
/// arrivals 40 s apart on average, exponential durations whose mean keeps
/// `concurrency` queries running (Little's law).  The stream starts in
/// steady state with `concurrency` queries already submitted.
class ChurnStream {
 public:
  struct Event {
    bool insert = true;
    Query query = Query::Acquisition(1, {ttmqo::Attribute::kLight}, {}, 8192);
    QueryId id = 0;
  };

  ChurnStream(std::uint64_t seed, std::size_t concurrency)
      : model_(Params(), seed),
        rng_(seed ^ 0xc4u),
        mean_duration_ms_(40'000.0 * static_cast<double>(concurrency)) {}

  /// The next event; inserts arrive at `now_ms`, terminates at their end.
  Event Next() {
    Event e;
    if (!ends_.empty() && ends_.top().first <= next_arrival_ms_) {
      now_ms_ = ends_.top().first;
      e.insert = false;
      e.id = ends_.top().second;
      ends_.pop();
      return e;
    }
    now_ms_ = next_arrival_ms_;
    e.query = model_.Next(next_id_++);
    e.id = e.query.id();
    ends_.emplace(now_ms_ + rng_.Exponential(mean_duration_ms_), e.id);
    next_arrival_ms_ = now_ms_ + rng_.Exponential(40'000.0);
    return e;
  }

  /// An initial query, already running at time 0.
  Event Initial() {
    Event e;
    e.query = model_.Next(next_id_++);
    e.id = e.query.id();
    ends_.emplace(rng_.Exponential(mean_duration_ms_), e.id);
    return e;
  }

  double now_ms() const { return now_ms_; }

 private:
  static ttmqo::QueryModelParams Params() {
    ttmqo::QueryModelParams params;
    params.predicate_selectivity = 1.0;
    params.randomize_selectivity = true;
    return params;
  }

  ttmqo::RandomQueryModel model_;
  ttmqo::Rng rng_;
  double mean_duration_ms_;
  double now_ms_ = 0.0;
  double next_arrival_ms_ = 0.0;
  QueryId next_id_ = 1;
  std::priority_queue<std::pair<double, QueryId>,
                      std::vector<std::pair<double, QueryId>>,
                      std::greater<>>
      ends_;
};

constexpr std::size_t kChurnConcurrency = 1000;
// Independent streams per run, each with its own optimizer.  How many
// queries end up in the one wide synthetic query (and so what a terminate
// costs) is set early in a stream and differs by 20% between seeds; four
// streams average that out.
constexpr std::size_t kChurnStreams = 4;
// Calls per stream per round, and untimed rounds after the fill.
constexpr std::size_t kChurnRoundEvents = 250;
constexpr std::size_t kChurnSetupRounds = 4;

struct ChurnCall {
  ChurnStream::Event event;
  ttmqo::BaseStationOptimizer::Actions actions;
};

/// The optimizer plus the benchmark's view of what should be in it.
struct ChurnState {
  ChurnState(const ttmqo::CostModel& cost, bool use_index)
      : optimizer(cost, Options(use_index)) {}
  static ttmqo::BaseStationOptimizer::Options Options(bool use_index) {
    ttmqo::BaseStationOptimizer::Options o;
    o.use_index = use_index;
    return o;
  }

  ttmqo::BaseStationOptimizer optimizer;
  std::map<QueryId, Query> active;
  std::uint64_t inserts = 0;
  std::uint64_t terminates = 0;
  std::uint64_t reinserted = 0;
  std::vector<double> insert_us;
  std::vector<double> terminate_us;
  std::vector<double> members_left;
  double churn_airtime_ms = 0.0;
};

/// Replays `events`, timing each optimizer call on its own.
void Replay(ChurnState& s, std::vector<ChurnCall>& calls,
            std::size_t num_nodes) {
  const ttmqo::RadioParams radio;
  for (ChurnCall& call : calls) {
    const ChurnStream::Event& e = call.event;
    if (e.insert) {
      const auto t0 = std::chrono::steady_clock::now();
      call.actions = s.optimizer.InsertUserQuery(e.query);
      const auto t1 = std::chrono::steady_clock::now();
      s.insert_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      s.active.emplace(e.id, e.query);
      ++s.inserts;
    } else {
      const std::size_t left =
          s.optimizer.SyntheticOf(e.id)->members.size() - 1;
      const std::uint64_t rebuilt = s.optimizer.decision_stats().rebuilt;
      const auto t0 = std::chrono::steady_clock::now();
      call.actions = s.optimizer.TerminateUserQuery(e.id);
      const auto t1 = std::chrono::steady_clock::now();
      s.terminate_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      s.members_left.push_back(static_cast<double>(left));
      if (s.optimizer.decision_stats().rebuilt != rebuilt) s.reinserted += left;
      s.active.erase(e.id);
      ++s.terminates;
    }
    // Figure 4's churn airtime: aborts and injections flood every node.
    s.churn_airtime_ms += static_cast<double>(call.actions.abort.size() *
                                              num_nodes) *
                          radio.TransmitDurationMs(2);
    for (const Query& q : call.actions.inject) {
      s.churn_airtime_ms +=
          static_cast<double>(num_nodes) *
          radio.TransmitDurationMs(ttmqo::PropagationPayloadBytes(q));
    }
  }
}

std::string CheckChurn(const ChurnState& s) {
  std::vector<Query> active;
  active.reserve(s.active.size());
  for (const auto& [id, q] : s.active) active.push_back(q);
  std::string err = CheckCoverage(Assignments(s.optimizer, active));
  if (err.empty()) {
    err = CheckDecisionCounts(s.optimizer, s.active.size(), s.inserts,
                              s.terminates, s.reinserted);
  }
  return err;
}

std::vector<ChurnCall> NextRound(ChurnStream& stream) {
  std::vector<ChurnCall> calls(kChurnRoundEvents);
  for (ChurnCall& c : calls) c.event = stream.Next();
  return calls;
}

/// One stream and the optimizer it drives.
struct ChurnLane {
  ChurnLane(const ttmqo::CostModel& cost, std::uint64_t seed)
      : state(cost, /*use_index=*/true), stream(seed, kChurnConcurrency) {}

  ChurnState state;
  ChurnStream stream;
  std::vector<ChurnCall> prefix;  // the fill and the set-up round
};

/// Runs `tier1_churn`; returns the operations (optimizer calls) attempted.
std::uint64_t RunChurn(std::uint64_t seed, double start_s, double seconds,
                       bool trace, Report& report,
                       std::map<std::string, double>& layers) {
  const ttmqo::Topology topology = ttmqo::Topology::Grid(8);
  const ttmqo::SelectivityEstimator estimator;
  const ttmqo::CostModel cost(topology, ttmqo::RadioParams{}, estimator);
  std::vector<std::unique_ptr<ChurnLane>> lanes;
  for (std::size_t i = 0; i < kChurnStreams; ++i) {
    lanes.push_back(std::make_unique<ChurnLane>(cost, Mix(seed, 1000 + i)));
  }

  // Set-up: fill each optimizer to steady concurrency, then untimed
  // rounds.
  for (auto& lane : lanes) {
    lane->prefix.resize(kChurnConcurrency);
    for (ChurnCall& c : lane->prefix) c.event = lane->stream.Initial();
    for (std::size_t r = 0; r < kChurnSetupRounds; ++r) {
      std::vector<ChurnCall> round = NextRound(lane->stream);
      lane->prefix.insert(lane->prefix.end(), round.begin(), round.end());
    }
    Replay(lane->state, lane->prefix, topology.size());
  }
  const double setup_s = NowS() - start_s;

  // The modelled radio time of the set-up streams: the running synthetic
  // queries' Eq. 3 airtime over each stream's simulated span, plus the
  // abort/inject floods.
  double radio_ms = 0.0;
  std::map<std::string, double> counts;
  double members_left = 0.0;
  double terminates = 0.0;
  for (const auto& lane : lanes) {
    const ChurnState& st = lane->state;
    radio_ms += (st.optimizer.TotalUserCost() - st.optimizer.TotalBenefit()) *
                    lane->stream.now_ms() +
                st.churn_airtime_ms;
    const auto& d = st.optimizer.decision_stats();
    const auto& ix = st.optimizer.index_stats();
    for (const auto& [name, value] :
         std::initializer_list<std::pair<const char*, std::uint64_t>>{
             {"tier1.decisions.covered", d.covered},
             {"tier1.decisions.merged", d.merged},
             {"tier1.decisions.standalone", d.standalone},
             {"tier1.decisions.retired", d.retired},
             {"tier1.decisions.rebuilt", d.rebuilt},
             {"tier1.decisions.kept", d.kept},
             {"tier1.coverage_hits", ix.coverage_hits},
             {"tier1.memo_hits", ix.memo_hits},
             {"tier1.pruned_candidates", ix.pruned_candidates},
             {"tier1.exact_evaluations", ix.exact_evaluations},
             {"tier1.synthetics", st.optimizer.NumSynthetic()}}) {
      counts[name] += static_cast<double>(value);
    }
    members_left += std::accumulate(st.members_left.begin(),
                                    st.members_left.end(), 0.0);
    terminates += static_cast<double>(st.members_left.size());
  }
  counts["tier1.cost_evaluations"] =
      static_cast<double>(cost.cost_evaluations());
  counts["tier1.members_left_per_terminate"] =
      members_left / std::max(1.0, terminates);

  // Checks: coverage and bookkeeping, and the naive scan's identical
  // actions over each set-up prefix.
  const double check_start = NowS();
  std::string err;
  for (const auto& lane : lanes) {
    if (err.empty()) err = CheckChurn(lane->state);
    ChurnState naive(cost, /*use_index=*/false);
    std::vector<ChurnCall> again = lane->prefix;
    Replay(naive, again, topology.size());
    for (std::size_t i = 0; i < again.size() && err.empty(); ++i) {
      err = CheckSameActions(lane->prefix[i].actions, again[i].actions);
      if (!err.empty()) err = "naive tier-1 path: " + err;
    }
  }
  if (!err.empty()) report.Fail(err);
  double check_s = NowS() - check_start;

  // Timed rounds.  Latencies and throughput cover these only.
  std::vector<double> insert_us;
  std::vector<double> terminate_us;
  std::uint64_t attempted = 0;
  std::vector<double> walls;
  double busy_s = 0.0;
  std::map<std::string, std::vector<double>> times;
  const double loop_start = NowS();
  do {
    std::vector<std::vector<ChurnCall>> calls;
    for (auto& lane : lanes) {
      lane->state.insert_us.clear();
      lane->state.terminate_us.clear();
      calls.push_back(NextRound(lane->stream));
    }
    if (trace) ttmqo::obs::ResetSpans();
    const double t0 = NowS();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Replay(lanes[i]->state, calls[i], topology.size());
    }
    const double wall = NowS() - t0;
    if (trace) {
      const auto spans = ttmqo::obs::CollectSpans();
      times["tier1.insert_ms"].push_back(SpanMs(spans, "tier1.insert"));
      times["tier1.terminate_ms"].push_back(SpanMs(spans, "tier1.terminate"));
      times["trace.wall_s"].push_back(wall);
    }
    walls.push_back(wall);
    busy_s += wall;
    attempted += kChurnRoundEvents * lanes.size();
    const double c0 = NowS();
    for (const auto& lane : lanes) {
      const ChurnState& st = lane->state;
      insert_us.insert(insert_us.end(), st.insert_us.begin(),
                       st.insert_us.end());
      terminate_us.insert(terminate_us.end(), st.terminate_us.begin(),
                          st.terminate_us.end());
      err = CheckChurn(st);
      if (!err.empty()) report.Fail(err);
    }
    check_s += NowS() - c0;
  } while (NowS() - loop_start < seconds);

  if (!trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("wall_s", Median(walls), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("radio_tx_s", radio_ms / 1000.0, "s");
  } else {
    layers = counts;
    for (const auto& [name, values] : times) layers[name] = Median(values);
    layers["tier1.calls_per_s"] = static_cast<double>(attempted) / busy_s;
    layers["tier1.insert_p50_us"] = Percentile(insert_us, 0.50);
    layers["tier1.insert_p99_us"] = Percentile(insert_us, 0.99);
    layers["tier1.terminate_p50_us"] = Percentile(terminate_us, 0.50);
    layers["tier1.terminate_p99_us"] = Percentile(terminate_us, 0.99);
    layers["check.oracle_ms"] = check_s * 1000.0;
  }
  return attempted;
}

// ------------------------------------------------------------------ main

/// Every per-layer metric, in BENCHMARK.json order, with its unit.  A layer
/// a workload does not pass through reports 0.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"runner.setup_ms", "ms"},
      {"runner.event_loop_ms", "ms"},
      {"runner.summarize_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.events_per_s", "1/s"},
      {"sampled.sim_event_ms", "ms"},
      {"sampled.net_deliver_ms", "ms"},
      {"sampled.net_complete_attempt_ms", "ms"},
      {"radio.attempts", "count"},
      {"radio.retransmissions", "count"},
      {"radio.drops", "count"},
      {"radio.link_drops", "count"},
      {"radio.tx_ms", "ms"}};
  for (const char* cls :
       {"result", "propagation", "abort", "maintenance", "control"}) {
    for (const char* mode : {"baseline", "bs-only", "innet-only", "ttmqo"}) {
      m.emplace_back(std::string("radio.msgs.") + cls + "." + mode, "count");
    }
  }
  for (const char* name : {"tier2.disseminate_ms", "delivery.rows"}) {
    m.emplace_back(name, name[0] == 't' ? "ms" : "count");
  }
  for (const char* action :
       {"covered", "merged", "standalone", "retired", "rebuilt", "kept"}) {
    m.emplace_back(std::string("tier1.decisions.") + action, "count");
  }
  for (const char* name :
       {"tier1.coverage_hits", "tier1.memo_hits", "tier1.pruned_candidates",
        "tier1.exact_evaluations", "tier1.cost_evaluations",
        "tier1.synthetics", "tier1.members_left_per_terminate"}) {
    m.emplace_back(name, "count");
  }
  m.insert(m.end(), {{"tier1.insert_ms", "ms"},
                     {"tier1.terminate_ms", "ms"},
                     {"tier1.calls_per_s", "1/s"},
                     {"tier1.insert_p50_us", "us"},
                     {"tier1.insert_p99_us", "us"},
                     {"tier1.terminate_p50_us", "us"},
                     {"tier1.terminate_p99_us", "us"}});
  for (const char* name :
       {"sends", "retransmits", "acks_sent", "duplicates_dropped", "give_ups",
        "quarantines", "repair_requests", "repair_replies", "late_drops"}) {
    m.emplace_back(std::string("arq.") + name, "count");
  }
  m.insert(m.end(), {{"sweep.utilization", "ratio"},
                     {"sweep.busy_ms", "ms"},
                     {"sweep.max_task_ms", "ms"},
                     {"sweep.runs_per_s", "1/s"},
                     {"check.oracle_ms", "ms"},
                     {"trace.wall_s", "s"}});
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[arg] = argv[++i];
    } else {
      return false;
    }
  }
  try {
    for (const auto& [key, value] : kv) {
      std::size_t used = 0;
      if (key == "workload") {
        a.workload = value;
      } else if (key == "seed") {
        a.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        a.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        a.trace = std::stoi(value, &used);
      } else {
        return false;
      }
      if (key != "workload" && used != value.size()) return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return !a.workload.empty() && a.seconds > 0 && a.seconds <= 120 &&
         (a.trace == 0 || a.trace == 1) && kv.count("seed") == 1;
}

int Main(int argc, char** argv) {
  const double start_s = NowS();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=paper_figures|large_grid|"
                 "lossy_arq|tier1_churn --seed=N --seconds=S --trace=0|1\n");
    return 2;
  }
  const bool trace = args.trace == 1;
  Report report;
  std::map<std::string, double> layers;
  std::uint64_t attempted = 0;
  if (args.workload == "tier1_churn") {
    attempted =
        RunChurn(args.seed, start_s, args.seconds, trace, report, layers);
  } else {
    SimWorkload w;
    if (args.workload == "paper_figures") {
      w = PaperFigures(args.seed);
    } else if (args.workload == "large_grid") {
      w = LargeGrid(args.seed);
    } else if (args.workload == "lossy_arq") {
      w = LossyArq(args.seed);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    attempted = RunSimWorkload(w, start_s, args.seconds, trace, report, layers);
  }
  if (trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = layers.find(name);
      report.Add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }
  if (!report.ok()) {
    std::fprintf(stderr, "check failed: %s\n", report.error().c_str());
  }
  std::printf("%s\n", report.Json(attempted, /*failed=*/0).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
