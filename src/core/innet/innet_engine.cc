#include "core/innet/innet_engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

constexpr std::size_t kAbortPayloadBytes = 2;

// Ticks and slots older than this are pruned from per-node bookkeeping.
constexpr SimDuration kPruneHorizonMs = 32 * kMinEpochDurationMs;

// A payload that survives an ARQ give-up is re-routed through fresh
// parents at most this many times before the loss is accepted.
constexpr int kMaxReroutes = 2;

// A node stays in a query's expected-contributor set for this many epochs
// after its last row.  Longer horizons repair deeper outages but NACK more
// nodes whose readings merely drifted out of the predicate range.
constexpr int kRepairHistoryEpochs = 3;

void MergePartialVectors(std::vector<PartialAggregate>& into,
                         const std::vector<PartialAggregate>& from) {
  Check(into.size() == from.size(),
        "partial aggregate vectors must align by spec");
  for (std::size_t i = 0; i < into.size(); ++i) into[i].Merge(from[i]);
}

}  // namespace

void ApplyReliabilityProfile(ReliabilityProfile profile,
                             InNetOptions& options) {
  switch (profile) {
    case ReliabilityProfile::kOff:
      return;
    case ReliabilityProfile::kArq:
      options.arq.enabled = true;
      [[fallthrough]];
    case ReliabilityProfile::kHarden:
      // The hardening bundle the chaos soak validates: liveness-driven
      // parent failover, dissemination re-floods, duplicate suppression.
      options.liveness_timeout_ms = 8192;
      options.dissemination_retries = 2;
      options.duplicate_suppression = true;
      return;
  }
}

InNetworkEngine::InNetworkEngine(Network& network, const FieldModel& field,
                                 ResultSink* sink, InNetOptions options)
    : network_(network),
      field_(field),
      sink_(sink),
      options_(options),
      tree_(network.topology(), network.link_quality()),
      srt_(network.topology(), tree_),
      levels_(network.topology()),
      nodes_(network.topology().size()) {
  if (options_.arq.enabled) {
    arq_.emplace(network_, options_.arq);
    arq_->SetQuarantineHook(
        [this](NodeId self, NodeId neighbor, SimTime until) {
          // The sink is exempt: routing away from the base station only
          // adds hops, and every detour lands on this same last link
          // anyway.  Quarantining it cascades into a rerouting storm.
          if (neighbor == kBaseStationId) return;
          // Feed the ARQ's flapping detection into the parent blacklist so
          // route selection avoids the neighbor for the same horizon.
          Suspicion& suspicion = NeighborOf(self, neighbor).suspicion;
          suspicion.blacklisted_until =
              std::max(suspicion.blacklisted_until, until);
          if (trace_ != nullptr) {
            EmitTrace(TraceEvent("tier2.quarantine")
                          .With("node", static_cast<std::int64_t>(self))
                          .With("neighbor",
                                static_cast<std::int64_t>(neighbor))
                          .With("until", until));
          }
        });
    arq_->SetGiveUpHook([this](const ArqTransport::GiveUpInfo& info) {
      OnArqGiveUp(info);
    });
    for (NodeId node : network_.topology().AllNodes()) {
      arq_->Attach(node, [this, node](const Message& msg, bool addressed) {
        HandleMessage(node, msg, addressed);
      });
    }
  } else {
    for (NodeId node : network_.topology().AllNodes()) {
      network_.SetReceiver(node, [this, node](const Message& msg,
                                              bool addressed) {
        HandleMessage(node, msg, addressed);
      });
    }
  }
}

SimDuration InNetworkEngine::SourceJitter(NodeId node) const {
  if (options_.source_jitter_ms <= 0) return 0;
  return (static_cast<SimDuration>(node) * 37) %
         (options_.source_jitter_ms + 1);
}

SimDuration InNetworkEngine::SlotOffset(NodeId node) const {
  return static_cast<SimDuration>(network_.topology().MaxDepth() -
                                  levels_.LevelOf(node)) *
             options_.agg_slot_ms +
         SourceJitter(node);
}

// -----------------------------------------------------------------------
// Submission / termination (base station API)
// -----------------------------------------------------------------------

void InNetworkEngine::EmitTrace(TraceEvent event) {
  event.time = network_.sim().Now();
  trace_->Emit(event);
}

void InNetworkEngine::SubmitQuery(const Query& query) {
  CheckArg(!bs_queries_.contains(query.id()),
           "InNetworkEngine: duplicate query id");
  bs_queries_.emplace(query.id(), BsQueryState(query));
  nodes_[kBaseStationId].prop_round[query.id()] =
      std::numeric_limits<int>::max();
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.submit")
                  .With("query", static_cast<std::int64_t>(query.id()))
                  .With("epoch_ms", static_cast<std::int64_t>(query.epoch()))
                  .With("active",
                        static_cast<std::int64_t>(bs_queries_.size())));
  }

  Message msg;
  msg.cls = MessageClass::kQueryPropagation;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = PropagationPayloadBytes(query) + 1;  // piggyback bit
  msg.payload = std::make_shared<InNetPropagationPayload>(
      query, /*has_data=*/false);
  network_.Send(std::move(msg));

  // Dissemination retries: re-flood with an advancing round number so
  // nodes that were unreachable during the initial flood (transient
  // outages) still learn the query; termination aborts the retry chain.
  for (int round = 1; round <= options_.dissemination_retries; ++round) {
    network_.sim().ScheduleAfter(
        static_cast<SimDuration>(round) *
            options_.dissemination_retry_interval_ms,
        [this, id = query.id(), round]() {
          const auto it = bs_queries_.find(id);
          if (it == bs_queries_.end() || it->second.terminated) return;
          if (trace_ != nullptr) {
            EmitTrace(TraceEvent("tier2.redisseminate")
                          .With("query", static_cast<std::int64_t>(id))
                          .With("round", static_cast<std::int64_t>(round)));
          }
          Message refresh;
          refresh.cls = MessageClass::kQueryPropagation;
          refresh.mode = AddressMode::kBroadcast;
          refresh.sender = kBaseStationId;
          refresh.payload_bytes =
              PropagationPayloadBytes(it->second.query) + 1;
          refresh.payload = std::make_shared<InNetPropagationPayload>(
              it->second.query, /*has_data=*/false, round);
          network_.Send(std::move(refresh));
        });
  }

  ScheduleEpochClose(query.id(),
                     AlignUp(network_.sim().Now() + 1, query.epoch()));
}

void InNetworkEngine::TerminateQuery(QueryId id) {
  auto it = bs_queries_.find(id);
  CheckArg(it != bs_queries_.end() && !it->second.terminated,
           "InNetworkEngine: terminating unknown or finished query");
  it->second.terminated = true;
  it->second.rows.clear();
  it->second.partials.clear();
  it->second.no_data.clear();
  it->second.last_contributed.clear();
  it->second.agg_counts.clear();
  nodes_[kBaseStationId].seen_abort.insert(id);
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.terminate")
                  .With("query", static_cast<std::int64_t>(id)));
  }

  Message msg;
  msg.cls = MessageClass::kQueryAbort;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = kAbortPayloadBytes;
  msg.payload = std::make_shared<QueryAbortPayload>(id);
  network_.Send(std::move(msg));
}

// -----------------------------------------------------------------------
// Message handling
// -----------------------------------------------------------------------

void InNetworkEngine::HandleMessage(NodeId self, const Message& msg,
                                    bool addressed) {
  NodeState& state = nodes_[self];
  // Liveness: anything heard on the broadcast channel proves the sender is
  // alive (only tracked when the failover knob is on).
  if (options_.liveness_timeout_ms > 0) NoteAlive(self, msg.sender);

  if (const auto* prop =
          PayloadAs<InNetPropagationPayload>(msg.payload.get())) {
    const QueryId id = prop->query.id();
    // Piggybacked data bit: learn it from every copy of the flood, even
    // duplicates, but only about upper-level neighbors.
    if (prop->sender_has_data) {
      NoteHasData(self, msg.sender, {id}, network_.sim().Now());
    }
    // A terminated query must never be reinstalled by a late re-flood.
    if (state.seen_abort.contains(id)) return;
    // Round-based dedup: each node installs once and re-forwards once per
    // dissemination round.
    const auto round_it = state.prop_round.find(id);
    const bool first_time = round_it == state.prop_round.end();
    if (!first_time && round_it->second >= prop->round) return;
    state.prop_round[id] = prop->round;
    if (self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    bool has_data = false;
    if (first_time && ShouldInstall(self, prop->query)) {
      InstallQuery(self, prop->query);
      // Evaluate the piggybacked "I have data" bit from the current field.
      const Reading sample = field_.SampleReading(
          self, network_.topology().PositionOf(self),
          prop->query.AcquiredAttributes(), network_.sim().Now());
      has_data = prop->query.predicates().Matches(sample);
    } else if (!first_time && state.active.contains(id)) {
      const Reading sample = field_.SampleReading(
          self, network_.topology().PositionOf(self),
          prop->query.AcquiredAttributes(), network_.sim().Now());
      has_data = prop->query.predicates().Matches(sample);
    }
    if (!ShouldForwardPropagation(self, prop->query)) return;
    state.relayed_propagation.insert(id);
    const Query query = prop->query;
    const int round = prop->round;
    network_.sim().ScheduleAfter(
        SourceJitter(self) + 1, [this, self, query, has_data, round]() {
          if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
          Message fwd;
          fwd.cls = MessageClass::kQueryPropagation;
          fwd.mode = AddressMode::kBroadcast;
          fwd.sender = self;
          fwd.payload_bytes = PropagationPayloadBytes(query) + 1;
          fwd.payload = std::make_shared<InNetPropagationPayload>(
              query, has_data, round);
          network_.Send(std::move(fwd));
        });
    return;
  }

  if (const auto* abort = PayloadAs<QueryAbortPayload>(msg.payload.get())) {
    if (state.seen_abort.contains(abort->query)) return;
    state.seen_abort.insert(abort->query);
    if (self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    RemoveQuery(self, abort->query);
    // The abort follows the propagation's prune.
    if (!state.relayed_propagation.contains(abort->query)) return;
    state.relayed_propagation.erase(abort->query);
    const QueryId id = abort->query;
    network_.sim().ScheduleAfter(SourceJitter(self) + 1, [this, self, id]() {
      if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
      Message fwd;
      fwd.cls = MessageClass::kQueryAbort;
      fwd.mode = AddressMode::kBroadcast;
      fwd.sender = self;
      fwd.payload_bytes = kAbortPayloadBytes;
      fwd.payload = std::make_shared<QueryAbortPayload>(id);
      network_.Send(std::move(fwd));
    });
    return;
  }

  if (const auto* row = PayloadAs<SharedRowPayload>(msg.payload.get())) {
    // The broadcast channel teaches us who has data: a row batch heard
    // from a neighbor that contains the neighbor's own reading marks it.
    for (const RowEntry& entry : row->entries) {
      if (entry.row.node() == msg.sender) {
        NoteHasData(self, msg.sender, entry.queries, row->epoch_time);
      }
    }
    if (!addressed) return;
    const auto it = row->dest_queries.find(self);
    if (it == row->dest_queries.end() || it->second.empty()) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    if (self == kBaseStationId) {
      BsAccept(msg);
      return;
    }
    // Keep only the (row, query) pairs this node is responsible for,
    // dropping (query, epoch, source) keys already relayed once.
    std::vector<RowEntry> mine;
    for (const RowEntry& entry : row->entries) {
      RowEntry kept;
      kept.row = entry.row;
      for (QueryId q : entry.queries) {
        if (std::find(it->second.begin(), it->second.end(), q) ==
            it->second.end()) {
          continue;
        }
        if (options_.duplicate_suppression &&
            !state.seen_rows
                 .emplace(q, row->epoch_time, entry.row.node())
                 .second) {
          ++duplicates_suppressed_;
          continue;
        }
        kept.queries.push_back(q);
      }
      if (!kept.queries.empty()) mine.push_back(std::move(kept));
    }
    if (mine.empty()) return;
    state.last_relay = network_.sim().Now();
    const SimTime t = row->epoch_time;
    if (options_.shared_messages && state.slot_scheduled.contains(t) &&
        !state.slot_done.contains(t)) {
      // Our packing slot has not fired yet: the relayed rows ride along
      // with our own reading in one message.
      auto& buffer = state.row_buffer[t];
      buffer.insert(buffer.end(), std::make_move_iterator(mine.begin()),
                    std::make_move_iterator(mine.end()));
    } else {
      SendRows(self, t, std::move(mine));
    }
    return;
  }

  if (const auto* agg = PayloadAs<SharedAggPayload>(msg.payload.get())) {
    // Any carrier of partials for q is a good parent for q: forwarding to
    // it lets the aggregates merge one hop earlier.
    for (const auto& [dest, queries] : agg->dest_queries) {
      NoteHasData(self, msg.sender, queries, agg->epoch_time);
    }
    if (!addressed) return;
    const auto it = agg->dest_queries.find(self);
    if (it == agg->dest_queries.end() || it->second.empty()) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    if (self == kBaseStationId) {
      BsAccept(msg);
      return;
    }
    state.last_relay = network_.sim().Now();
    const SimTime t = agg->epoch_time;
    std::map<QueryId, std::vector<PartialAggregate>> mine;
    for (QueryId q : it->second) {
      const auto part_it = agg->partials.find(q);
      Check(part_it != agg->partials.end(),
            "shared agg payload lacks partials for an addressed query");
      mine.emplace(q, part_it->second);
    }
    if (state.slot_scheduled.contains(t) && !state.slot_done.contains(t)) {
      // Our own shared slot for this tick has not fired: merge and ride
      // along (the in-network aggregation saving).
      auto& buffer = state.agg_buffer[t];
      for (auto& [q, partials] : mine) {
        auto [buf_it, inserted] = buffer.try_emplace(q, partials);
        if (!inserted) MergePartialVectors(buf_it->second, partials);
      }
    } else {
      SendAgg(self, t, std::move(mine));
    }
    return;
  }

  if (const auto* req = PayloadAs<RepairRequestPayload>(msg.payload.get())) {
    if (!addressed || self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    HandleRepairRequest(self, *req);
    return;
  }

  if (const auto* reply = PayloadAs<RepairReplyPayload>(msg.payload.get())) {
    if (!addressed) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    HandleRepairReply(self, msg, *reply);
    return;
  }
}

// -----------------------------------------------------------------------
// Query install / remove and the shared tick
// -----------------------------------------------------------------------

bool InNetworkEngine::ShouldInstall(NodeId self, const Query& query) const {
  if (!options_.use_semantic_routing) return true;
  // Value-based predicates cannot exclude a node in advance; constraints
  // on the constant attributes (nodeid, position) can.
  return NodeMayMatch(self, network_.topology().PositionOf(self),
                      query.predicates());
}

bool InNetworkEngine::ShouldForwardPropagation(NodeId self,
                                               const Query& query) const {
  if (!options_.use_semantic_routing) return true;
  if (!SemanticRoutingTree::IsPrunable(query.predicates())) return true;
  for (NodeId child : tree_.ChildrenOf(self)) {
    if (srt_.SubtreeMayMatch(child, query.predicates())) return true;
  }
  return false;
}

void InNetworkEngine::InstallQuery(NodeId self, const Query& query) {
  nodes_[self].active.emplace(query.id(), query);
  ScheduleTick(self);
}

void InNetworkEngine::RemoveQuery(NodeId self, QueryId id) {
  NodeState& state = nodes_[self];
  state.active.erase(id);
  for (auto& [t, per_query] : state.agg_buffer) per_query.erase(id);
  ScheduleTick(self);
}

void InNetworkEngine::ScheduleTick(NodeId self) {
  NodeState& state = nodes_[self];
  if (state.active.empty()) {
    state.tick_scheduled_for = -1;
    return;
  }
  const SimTime now = network_.sim().Now();
  SimTime next = std::numeric_limits<SimTime>::max();
  for (const auto& [id, query] : state.active) {
    next = std::min(next, AlignUp(now + 1, query.epoch()));
  }
  if (state.tick_scheduled_for == next) return;
  state.tick_scheduled_for = next;
  network_.sim().ScheduleAt(next,
                            [this, self, next]() { OnTick(self, next); });
}

void InNetworkEngine::OnTick(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (network_.IsFailed(self)) return;  // crashed: the tick chain ends
  if (state.tick_scheduled_for != t) return;  // stale event
  if (network_.IsDown(self)) {
    // Transient outage: skip this tick but keep the chain alive so the
    // node resumes sampling as soon as it recovers.
    ScheduleTick(self);
    return;
  }
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);

  // Sharing over time: all queries firing at t use one sample acquisition.
  std::vector<const Query*> triggered;
  std::vector<Attribute> attrs;
  for (const auto& [id, query] : state.active) {
    if (t % query.epoch() != 0) continue;
    triggered.push_back(&query);
    const auto acquired = query.AcquiredAttributes();
    attrs.insert(attrs.end(), acquired.begin(), acquired.end());
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());

  bool any_match = false;
  if (!triggered.empty()) {
    const Reading sample = field_.SampleReading(
        self, network_.topology().PositionOf(self), attrs, t);

    std::vector<QueryId> matched_acq;
    std::vector<Attribute> row_attrs;
    for (const Query* query : triggered) {
      const bool match = query->predicates().Matches(sample);
      if (query->kind() == QueryKind::kAggregation) {
        if (match) {
          any_match = true;
          std::vector<PartialAggregate> own;
          own.reserve(query->aggregates().size());
          for (const AggregateSpec& spec : query->aggregates()) {
            own.push_back(PartialAggregate::OfValue(
                spec, sample.GetOrThrow(spec.attribute)));
          }
          auto& buffer = state.agg_buffer[t];
          auto [it, inserted] = buffer.try_emplace(query->id(), std::move(own));
          if (!inserted) MergePartialVectors(it->second, own);
        }
      } else if (match) {
        any_match = true;
        matched_acq.push_back(query->id());
        row_attrs.insert(row_attrs.end(), query->attributes().begin(),
                         query->attributes().end());
      }
    }

    // One shared transmission slot per tick, staggered bottom-up so that
    // children's rows and partials arrive before parents transmit and ride
    // along in the parents' packed messages.
    if (!state.slot_scheduled.contains(t)) {
      state.slot_scheduled.insert(t);
      network_.sim().ScheduleAt(t + SlotOffset(self),
                                [this, self, t]() { OnSlot(self, t); });
    }

    if (!matched_acq.empty()) {
      std::sort(row_attrs.begin(), row_attrs.end());
      row_attrs.erase(std::unique(row_attrs.begin(), row_attrs.end()),
                      row_attrs.end());
      RowEntry own;
      own.row = Reading(self, t);
      for (Attribute attr : row_attrs) {
        own.row.Set(attr, sample.GetOrThrow(attr));
      }
      own.queries = matched_acq;
      // Cache the matched reading so a gap-repair request for this tick
      // can be answered from memory after the original send was lost.
      if (arq_) state.own_rows[t] = own;
      if (options_.shared_messages) {
        state.row_buffer[t].push_back(std::move(own));
      } else {
        // Ablation: no packing — one immediate message per query.
        network_.sim().ScheduleAfter(
            SourceJitter(self), [this, self, t, own]() {
              if (nodes_[self].active.empty()) return;
              if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
              for (QueryId q : own.queries) {
                RowEntry single;
                single.row = own.row;
                single.queries = {q};
                SendRows(self, t, {std::move(single)});
              }
            });
      }
    }
  }
  state.matched_last_tick = any_match;

  // Prune stale per-tick bookkeeping.
  const SimTime horizon = t - kPruneHorizonMs;
  std::erase_if(state.slot_scheduled,
                [horizon](SimTime s) { return s < horizon; });
  std::erase_if(state.slot_done, [horizon](SimTime s) { return s < horizon; });
  std::erase_if(state.agg_buffer,
                [horizon](const auto& e) { return e.first < horizon; });
  std::erase_if(state.row_buffer,
                [horizon](const auto& e) { return e.first < horizon; });
  std::erase_if(state.seen_rows, [horizon](const auto& key) {
    return std::get<1>(key) < horizon;
  });
  std::erase_if(state.own_rows,
                [horizon](const auto& e) { return e.first < horizon; });

  ScheduleTick(self);

  // Decide about sleeping once this tick's forwarding duties are over.
  if (options_.enable_sleep) {
    const SimDuration idle_check =
        SlotOffset(self) + options_.agg_slot_ms + options_.source_jitter_ms;
    network_.sim().ScheduleAt(t + idle_check,
                              [this, self, t]() { MaybeSleep(self, t); });
  }
}

void InNetworkEngine::OnSlot(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (network_.IsDown(self)) return;  // crashed or in an outage
  if (state.slot_done.contains(t)) return;
  state.slot_done.insert(t);

  // Packed rows (own reading plus everything relayed before the slot).
  const auto row_it = state.row_buffer.find(t);
  if (row_it != state.row_buffer.end()) {
    std::vector<RowEntry> rows = std::move(row_it->second);
    state.row_buffer.erase(row_it);
    if (!rows.empty()) {
      if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
      SendRows(self, t, std::move(rows));
    }
  }

  // Merged partial aggregates.
  const auto it = state.agg_buffer.find(t);
  if (it == state.agg_buffer.end()) return;
  std::map<QueryId, std::vector<PartialAggregate>> partials =
      std::move(it->second);
  state.agg_buffer.erase(it);
  std::erase_if(partials, [](const auto& entry) {
    return entry.second.empty() || entry.second.front().count() == 0;
  });
  if (partials.empty()) return;
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  if (options_.shared_messages) {
    SendAgg(self, t, std::move(partials));
  } else {
    for (auto& [q, p] : partials) {
      std::map<QueryId, std::vector<PartialAggregate>> single;
      single.emplace(q, std::move(p));
      SendAgg(self, t, std::move(single));
    }
  }
}

// -----------------------------------------------------------------------
// Route selection and transmission
// -----------------------------------------------------------------------

std::map<NodeId, std::vector<QueryId>> InNetworkEngine::ChooseParents(
    NodeId self, const std::vector<QueryId>& queries) {
  std::map<NodeId, std::vector<QueryId>> groups;
  if (!options_.query_aware_routing) {
    groups.emplace(tree_.ParentOf(self), queries);
    return groups;
  }
  // Beacon-based failure detection plus liveness: dead neighbors are never
  // candidates, and neighbors silent past the liveness timeout are
  // blacklisted with bounded backoff.  When every upper-level neighbor is
  // suspect, fall back to the merely-not-failed set; when all are dead the
  // node is cut off — fall back to the full list (the messages will be
  // lost, which is the truth).
  std::vector<NodeId>& upper = upper_scratch_;
  upper.clear();
  for (NodeId candidate : levels_.UpperNeighbors(self)) {
    if (!network_.IsFailed(candidate) && !SuspectParent(self, candidate) &&
        !(arq_ && candidate != kBaseStationId &&
          arq_->IsQuarantined(self, candidate))) {
      upper.push_back(candidate);
    }
  }
  if (upper.empty()) {
    for (NodeId candidate : levels_.UpperNeighbors(self)) {
      if (!network_.IsFailed(candidate)) upper.push_back(candidate);
    }
  }
  if (upper.empty()) {
    const auto& all = levels_.UpperNeighbors(self);
    upper.assign(all.begin(), all.end());
  }
  Check(!upper.empty(), "every non-root node has an upper-level neighbor");
  const NodeState& state = nodes_[self];
  const SimTime now = network_.sim().Now();

  // Whether a candidate is fresh for a query (it advertised data for it
  // within the query's TTL) does not change during the call: tabulate it.
  const std::size_t num_queries = queries.size();
  std::vector<char>& fresh = fresh_scratch_;
  fresh.assign(upper.size() * num_queries, 0);
  for (std::size_t c = 0; c < upper.size() && !state.neighbors.empty(); ++c) {
    const auto& has_data =
        state.neighbors[network_.topology().NeighborIndex(self, upper[c])]
            .has_data;
    for (std::size_t i = 0; i < num_queries; ++i) {
      const auto q_it = std::lower_bound(
          has_data.begin(), has_data.end(), queries[i],
          [](const auto& entry, QueryId q) { return entry.first < q; });
      if (q_it == has_data.end() || q_it->first != queries[i]) continue;
      const auto active_it = state.active.find(queries[i]);
      if (active_it == state.active.end()) continue;
      const SimDuration ttl = static_cast<SimDuration>(
                                  options_.has_data_ttl_epochs) *
                              active_it->second.epoch();
      fresh[c * num_queries + i] = q_it->second + ttl >= now;
    }
  }

  // Greedy cover: the candidate fresh for most still-ungrouped queries
  // (ties to the better link) takes them, until nobody is fresh for the
  // rest.
  std::vector<char>& grouped = grouped_scratch_;
  grouped.assign(num_queries, 0);
  std::size_t remaining = num_queries;
  while (remaining > 0) {
    std::size_t best = 0;
    std::size_t best_covered = 0;
    double best_quality = -1.0;
    for (std::size_t c = 0; c < upper.size(); ++c) {
      std::size_t covered = 0;
      for (std::size_t i = 0; i < num_queries; ++i) {
        covered += !grouped[i] && fresh[c * num_queries + i];
      }
      const double quality = network_.link_quality().Quality(self, upper[c]);
      if (covered > best_covered ||
          (covered == best_covered && quality > best_quality)) {
        best = c;
        best_covered = covered;
        best_quality = quality;
      }
    }
    // Nobody advertises data for the rest: give it to the most stable
    // link (this degenerates to TinyDB's choice on a cold start).
    const bool take_all = best_covered == 0;
    auto& bucket = groups[upper[best]];
    for (std::size_t i = 0; i < num_queries; ++i) {
      if (grouped[i] || !(take_all || fresh[best * num_queries + i])) continue;
      bucket.push_back(queries[i]);
      grouped[i] = 1;
      --remaining;
    }
  }
  for (auto& [parent, qs] : groups) std::sort(qs.begin(), qs.end());
  return groups;
}

void InNetworkEngine::SendRows(NodeId self, SimTime t,
                               std::vector<RowEntry> entries) {
  // Rows whose queries route to the same next-hop split pack into one
  // transmission; distinct splits become distinct messages.
  std::map<std::map<NodeId, std::vector<QueryId>>, std::vector<RowEntry>>
      groups;
  for (RowEntry& entry : entries) {
    groups[ChooseParents(self, entry.queries)].push_back(std::move(entry));
  }
  for (auto& [dest_queries, rows] : groups) {
    auto payload = std::make_shared<SharedRowPayload>();
    payload->epoch_time = t;
    payload->entries = std::move(rows);
    payload->dest_queries = dest_queries;

    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = payload->dest_queries.size() == 1 ? AddressMode::kUnicast
                                                 : AddressMode::kMulticast;
    msg.sender = self;
    for (const auto& [dest, qs] : payload->dest_queries) {
      msg.destinations.push_back(dest);
    }
    msg.payload_bytes = SharedRowBytes(*payload);
    const SimTime deadline = ResultDeadline(self, t, payload->dest_queries);
    msg.payload = std::move(payload);
    ReliableSend(std::move(msg), deadline);
  }
}

void InNetworkEngine::SendAgg(
    NodeId self, SimTime t,
    std::map<QueryId, std::vector<PartialAggregate>> partials) {
  std::vector<QueryId> queries;
  for (const auto& [q, p] : partials) queries.push_back(q);

  auto payload = std::make_shared<SharedAggPayload>();
  payload->epoch_time = t;
  payload->partials = std::move(partials);
  payload->dest_queries = ChooseParents(self, queries);

  Message msg;
  msg.cls = MessageClass::kResult;
  msg.mode = payload->dest_queries.size() == 1 ? AddressMode::kUnicast
                                               : AddressMode::kMulticast;
  msg.sender = self;
  for (const auto& [dest, qs] : payload->dest_queries) {
    msg.destinations.push_back(dest);
  }
  msg.payload_bytes = SharedAggBytes(*payload);
  const SimTime deadline = ResultDeadline(self, t, payload->dest_queries);
  msg.payload = std::move(payload);
  ReliableSend(std::move(msg), deadline);
}

// -----------------------------------------------------------------------
// Reliability: ARQ routing, give-up re-routes, gap repair
// -----------------------------------------------------------------------

void InNetworkEngine::ReliableSend(Message msg, SimTime deadline) {
  if (arq_) {
    arq_->Send(std::move(msg), deadline, current_reroute_);
  } else {
    network_.Send(std::move(msg));
  }
}

SimTime InNetworkEngine::ResultDeadline(
    NodeId self, SimTime t,
    const std::map<NodeId, std::vector<QueryId>>& dest_queries) const {
  // A result for tick t is useful until the earliest epoch close among the
  // queries it serves.  Relays may carry queries they never installed
  // (SRT-pruned); fall back to the shortest possible epoch for those.
  const NodeState& state = nodes_[self];
  SimDuration min_epoch = std::numeric_limits<SimDuration>::max();
  bool any = false;
  for (const auto& [dest, queries] : dest_queries) {
    for (QueryId q : queries) {
      const auto it = state.active.find(q);
      if (it == state.active.end()) continue;
      min_epoch = std::min(min_epoch, it->second.epoch());
      any = true;
    }
  }
  if (!any) min_epoch = kMinEpochDurationMs;
  return t + min_epoch;
}

void InNetworkEngine::OnArqGiveUp(const ArqTransport::GiveUpInfo& info) {
  if (info.reroutes >= kMaxReroutes) return;
  if (network_.sim().Now() >= info.deadline) return;
  if (network_.IsFailed(info.sender) || network_.IsDown(info.sender)) return;
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.arq_reroute")
                  .With("node", static_cast<std::int64_t>(info.sender))
                  .With("attempt",
                        static_cast<std::int64_t>(info.reroutes + 1)));
  }
  current_reroute_ = info.reroutes + 1;
  if (const auto* row = PayloadAs<SharedRowPayload>(info.inner.get())) {
    // Keep only the (row, query) pairs whose destination never acked; the
    // quarantine the give-up produced steers ChooseParents elsewhere.
    std::set<QueryId> lost;
    for (NodeId dest : info.unacked) {
      const auto it = row->dest_queries.find(dest);
      if (it == row->dest_queries.end()) continue;
      lost.insert(it->second.begin(), it->second.end());
    }
    std::vector<RowEntry> entries;
    for (const RowEntry& entry : row->entries) {
      RowEntry kept;
      kept.row = entry.row;
      for (QueryId q : entry.queries) {
        if (lost.contains(q)) kept.queries.push_back(q);
      }
      if (!kept.queries.empty()) entries.push_back(std::move(kept));
    }
    if (!entries.empty()) {
      SendRows(info.sender, row->epoch_time, std::move(entries));
    }
  } else if (const auto* agg = PayloadAs<SharedAggPayload>(info.inner.get())) {
    std::set<QueryId> lost;
    for (NodeId dest : info.unacked) {
      const auto it = agg->dest_queries.find(dest);
      if (it == agg->dest_queries.end()) continue;
      lost.insert(it->second.begin(), it->second.end());
    }
    std::map<QueryId, std::vector<PartialAggregate>> partials;
    for (const auto& [q, p] : agg->partials) {
      if (lost.contains(q)) partials.emplace(q, p);
    }
    if (!partials.empty()) {
      SendAgg(info.sender, agg->epoch_time, std::move(partials));
    }
  } else if (PayloadAs<RepairReplyPayload>(info.inner.get()) != nullptr) {
    // The quarantined hop is now avoided by ControlParent; try another.
    ForwardRepairReply(
        info.sender,
        std::static_pointer_cast<const RepairReplyPayload>(info.inner));
  }
  // Repair *requests* are not re-routed: the fixed tree is the only path
  // that reaches a child's subtree, so an unreachable child simply stays
  // unaccounted this epoch — which is what coverage reports.
  current_reroute_ = 0;
}

NodeId InNetworkEngine::NextHopDown(NodeId from, NodeId target) const {
  NodeId hop = target;
  while (hop != kBaseStationId && tree_.ParentOf(hop) != from) {
    hop = tree_.ParentOf(hop);
  }
  return hop;  // kBaseStationId when target is not below `from`
}

NodeId InNetworkEngine::ControlParent(NodeId self) {
  // Control traffic climbs the fixed tree unless the tree parent is dead
  // or quarantined; then the least-suspect upper-level neighbor takes over.
  const NodeId tree_parent = tree_.ParentOf(self);
  auto usable = [&](NodeId candidate) {
    return !network_.IsFailed(candidate) && !SuspectParent(self, candidate) &&
           !(arq_ && candidate != kBaseStationId &&
             arq_->IsQuarantined(self, candidate));
  };
  if (usable(tree_parent)) return tree_parent;
  NodeId best = tree_parent;
  double best_quality = -1.0;
  for (NodeId candidate : levels_.UpperNeighbors(self)) {
    if (!usable(candidate)) continue;
    const double quality = network_.link_quality().Quality(self, candidate);
    if (quality > best_quality) {
      best = candidate;
      best_quality = quality;
    }
  }
  return best;
}

void InNetworkEngine::RepairCheck(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated || !arq_) return;
  const BsQueryState& state = it->second;
  if (epoch_time <= state.closed_through) return;
  const auto rows_it = state.rows.find(epoch_time);
  const auto nd_it = state.no_data.find(epoch_time);
  // Missing = recent contributors that are silent this epoch.  The learned
  // expectation keeps the NACK fan-out proportional to actual losses; a
  // node whose reading drifted out of the predicate range answers one
  // "no data" and ages out of the set after kRepairHistoryEpochs.
  const SimTime horizon =
      epoch_time - kRepairHistoryEpochs * state.query.epoch();
  std::vector<NodeId> missing;
  for (const auto& [node, last] : state.last_contributed) {
    if (last < horizon) continue;
    if (network_.IsFailed(node)) continue;
    if (rows_it != state.rows.end() && rows_it->second.contains(node)) {
      continue;
    }
    if (nd_it != state.no_data.end() && nd_it->second.contains(node)) {
      continue;
    }
    missing.push_back(node);
  }
  if (missing.empty()) return;
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.repair_check")
                  .With("query", static_cast<std::int64_t>(id))
                  .With("epoch_t", epoch_time)
                  .With("missing",
                        static_cast<std::int64_t>(missing.size())));
  }
  // NACK down the fixed tree, one request per first-hop subtree.
  std::map<NodeId, std::vector<NodeId>> by_child;
  for (NodeId node : missing) {
    const NodeId child = NextHopDown(kBaseStationId, node);
    if (child == kBaseStationId) continue;
    by_child[child].push_back(node);
  }
  const SimTime deadline = epoch_time + state.query.epoch();
  for (auto& [child, targets] : by_child) {
    if (network_.IsFailed(child)) continue;
    SendRepairRequest(kBaseStationId, child, id, epoch_time, deadline,
                      std::move(targets));
  }
}

void InNetworkEngine::SendRepairRequest(NodeId from, NodeId to, QueryId id,
                                        SimTime epoch_time, SimTime deadline,
                                        std::vector<NodeId> targets) {
  ++repair_requests_;
  auto payload = std::make_shared<RepairRequestPayload>();
  payload->query = id;
  payload->epoch_time = epoch_time;
  payload->deadline = deadline;
  payload->targets = std::move(targets);

  Message msg;
  msg.cls = MessageClass::kControl;
  msg.mode = AddressMode::kUnicast;
  msg.sender = from;
  msg.destinations.push_back(to);
  msg.payload_bytes = RepairRequestBytes(*payload);
  msg.payload = std::move(payload);
  if (network_.IsAsleep(from)) network_.SetAsleep(from, false);
  ReliableSend(std::move(msg), deadline);
}

void InNetworkEngine::HandleRepairRequest(NodeId self,
                                          const RepairRequestPayload& req) {
  if (network_.sim().Now() >= req.deadline) return;  // epoch already closed
  std::vector<NodeId> rest;
  bool mine = false;
  for (NodeId target : req.targets) {
    if (target == self) {
      mine = true;
    } else {
      rest.push_back(target);
    }
  }
  if (mine) SendRepairReply(self, req.query, req.epoch_time, req.deadline);
  if (rest.empty()) return;
  // Pass the remaining targets further down, grouped by own tree child.
  std::map<NodeId, std::vector<NodeId>> by_child;
  for (NodeId target : rest) {
    const NodeId child = NextHopDown(self, target);
    if (child == kBaseStationId) continue;  // not below us: mis-routed, drop
    by_child[child].push_back(target);
  }
  for (auto& [child, targets] : by_child) {
    if (network_.IsFailed(child)) continue;
    SendRepairRequest(self, child, req.query, req.epoch_time, req.deadline,
                      std::move(targets));
  }
}

void InNetworkEngine::SendRepairReply(NodeId self, QueryId id,
                                      SimTime epoch_time, SimTime deadline) {
  const NodeState& state = nodes_[self];
  auto payload = std::make_shared<RepairReplyPayload>();
  payload->query = id;
  payload->epoch_time = epoch_time;
  payload->deadline = deadline;
  payload->node = self;
  // "No data" is only meaningful when the node actually knew the query at
  // some point; a node that missed the dissemination cannot vouch for the
  // epoch and stays uncovered.
  payload->knows_query = state.active.contains(id) ||
                         state.seen_abort.contains(id) ||
                         state.prop_round.contains(id);
  const auto row_it = state.own_rows.find(epoch_time);
  if (row_it != state.own_rows.end() &&
      std::find(row_it->second.queries.begin(), row_it->second.queries.end(),
                id) != row_it->second.queries.end()) {
    payload->has_row = true;
    payload->row = row_it->second.row;
  }
  ForwardRepairReply(self, std::move(payload));
}

void InNetworkEngine::ForwardRepairReply(
    NodeId self, std::shared_ptr<const RepairReplyPayload> reply) {
  if (network_.sim().Now() >= reply->deadline) return;
  Message msg;
  msg.cls = MessageClass::kControl;
  msg.mode = AddressMode::kUnicast;
  msg.sender = self;
  msg.destinations.push_back(ControlParent(self));
  msg.payload_bytes = RepairReplyBytes(*reply);
  const SimTime deadline = reply->deadline;
  msg.payload = std::move(reply);
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  ReliableSend(std::move(msg), deadline);
}

void InNetworkEngine::HandleRepairReply(NodeId self, const Message& msg,
                                        const RepairReplyPayload& reply) {
  if (self != kBaseStationId) {
    // Relay one hop further up; reuse the payload we already hold.
    ForwardRepairReply(
        self, std::static_pointer_cast<const RepairReplyPayload>(msg.payload));
    return;
  }
  auto it = bs_queries_.find(reply.query);
  if (it == bs_queries_.end() || it->second.terminated) return;
  BsQueryState& state = it->second;
  if (reply.epoch_time <= state.closed_through) {
    ++late_drops_;
    return;
  }
  ++repair_replies_;
  if (reply.has_row) {
    if (!state.rows[reply.epoch_time]
             .try_emplace(reply.node, reply.row)
             .second) {
      ++duplicates_suppressed_;
    }
    SimTime& last = state.last_contributed[reply.node];
    last = std::max(last, reply.epoch_time);
  } else if (reply.knows_query) {
    state.no_data[reply.epoch_time].insert(reply.node);
  }
}

InNetworkEngine::NeighborState& InNetworkEngine::NeighborOf(NodeId self,
                                                           NodeId neighbor) {
  auto& neighbors = nodes_[self].neighbors;
  if (neighbors.empty()) {
    neighbors.resize(network_.topology().NeighborsOf(self).size());
  }
  return neighbors[network_.topology().NeighborIndex(self, neighbor)];
}

void InNetworkEngine::NoteAlive(NodeId self, NodeId sender) {
  NeighborState& neighbor = NeighborOf(self, sender);
  neighbor.last_heard = std::max(neighbor.last_heard, network_.sim().Now());
  neighbor.suspicion = Suspicion{};  // fresh traffic resets the backoff
}

bool InNetworkEngine::SuspectParent(NodeId self, NodeId candidate) {
  // Nothing recorded about any neighbor and nothing to record: without
  // liveness tracking only an existing blacklist entry could apply.
  if (nodes_[self].neighbors.empty() && options_.liveness_timeout_ms <= 0) {
    return false;
  }
  NeighborState& neighbor = NeighborOf(self, candidate);
  Suspicion& suspicion = neighbor.suspicion;
  const SimTime now = network_.sim().Now();
  // An existing blacklist entry applies even without liveness tracking:
  // the ARQ quarantine hook writes here too.
  if (now < suspicion.blacklisted_until) return true;
  if (options_.liveness_timeout_ms <= 0) return false;
  if (now - neighbor.last_heard <= options_.liveness_timeout_ms) return false;
  // Silent past the timeout: blacklist with a doubling, bounded backoff.
  suspicion.backoff =
      suspicion.backoff == 0
          ? options_.blacklist_base_backoff_ms
          : std::min(suspicion.backoff * 2, options_.blacklist_max_backoff_ms);
  suspicion.blacklisted_until = now + suspicion.backoff;
  // Optimistic probe: pretend the candidate was heard at expiry so it gets
  // one fresh chance before the next (doubled) blacklist — bounded
  // re-selection after recovery.
  neighbor.last_heard =
      std::max(neighbor.last_heard, suspicion.blacklisted_until);
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.parent_blacklist")
                  .With("node", static_cast<std::int64_t>(self))
                  .With("parent", static_cast<std::int64_t>(candidate))
                  .With("until", suspicion.blacklisted_until));
  }
  return true;
}

void InNetworkEngine::NoteHasData(NodeId self, NodeId sender,
                                  const std::vector<QueryId>& queries,
                                  SimTime when) {
  // Only upper-level neighbors are parent candidates.
  if (levels_.LevelOf(sender) + 1 != levels_.LevelOf(self)) return;
  auto& has_data = NeighborOf(self, sender).has_data;
  for (QueryId q : queries) {
    const auto it = std::lower_bound(
        has_data.begin(), has_data.end(), q,
        [](const auto& entry, QueryId key) { return entry.first < key; });
    if (it != has_data.end() && it->first == q) {
      it->second = std::max(it->second, when);
    } else {
      has_data.emplace(it, q, std::max(SimTime{0}, when));
    }
  }
}

void InNetworkEngine::MaybeSleep(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (state.matched_last_tick) return;
  if (state.last_relay >= t) return;  // relayed during this tick
  if (state.tick_scheduled_for <= network_.sim().Now()) return;
  const SimTime wake_at = state.tick_scheduled_for - options_.sleep_guard_ms;
  if (wake_at <= network_.sim().Now()) return;
  network_.SetAsleep(self, true);
  network_.sim().ScheduleAt(wake_at, [this, self]() {
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  });
}

// -----------------------------------------------------------------------
// Base-station side
// -----------------------------------------------------------------------

void InNetworkEngine::BsAccept(const Message& msg) {
  if (const auto* row = PayloadAs<SharedRowPayload>(msg.payload.get())) {
    const auto it = row->dest_queries.find(kBaseStationId);
    if (it == row->dest_queries.end()) return;
    for (const RowEntry& entry : row->entries) {
      for (QueryId q : entry.queries) {
        if (std::find(it->second.begin(), it->second.end(), q) ==
            it->second.end()) {
          continue;  // another destination is responsible for this query
        }
        auto bs_it = bs_queries_.find(q);
        if (bs_it == bs_queries_.end() || bs_it->second.terminated) continue;
        // Epochs at or before the watermark are closed: the answer left
        // the station already, so the row is dropped instead of leaking
        // into the per-epoch map forever.
        if (row->epoch_time <= bs_it->second.closed_through) {
          ++late_drops_;
          continue;
        }
        // At most one row per (query, epoch, source): duplicate deliveries
        // (e.g. a relay re-sending after an ambiguous loss) are dropped.
        if (!bs_it->second.rows[row->epoch_time]
                 .try_emplace(entry.row.node(), entry.row)
                 .second) {
          ++duplicates_suppressed_;
        }
        if (arq_) {
          SimTime& last =
              bs_it->second.last_contributed[entry.row.node()];
          last = std::max(last, row->epoch_time);
        }
      }
    }
    return;
  }
  if (const auto* agg = PayloadAs<SharedAggPayload>(msg.payload.get())) {
    const auto it = agg->dest_queries.find(kBaseStationId);
    if (it == agg->dest_queries.end()) return;
    for (QueryId q : it->second) {
      auto bs_it = bs_queries_.find(q);
      if (bs_it == bs_queries_.end() || bs_it->second.terminated) continue;
      if (agg->epoch_time <= bs_it->second.closed_through) {
        ++late_drops_;
        continue;
      }
      const auto part_it = agg->partials.find(q);
      if (part_it == agg->partials.end()) continue;
      auto& buffer = bs_it->second.partials[agg->epoch_time];
      if (buffer.empty()) {
        buffer = part_it->second;
      } else {
        MergePartialVectors(buffer, part_it->second);
      }
    }
  }
}

void InNetworkEngine::ScheduleEpochClose(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  network_.sim().ScheduleAt(
      epoch_time + it->second.query.epoch(),
      [this, id, epoch_time]() { CloseEpoch(id, epoch_time); });
  // Gap repair (arq profile, acquisition only): halfway through the epoch
  // the regular deliveries are in; NACK whoever is still unaccounted while
  // there is time for a repair round trip before the close.  Aggregation
  // queries get no repair — re-injecting a partial into the in-network
  // merge could double-count — only coverage annotation.
  if (arq_ && it->second.query.kind() == QueryKind::kAcquisition) {
    network_.sim().ScheduleAt(
        epoch_time + it->second.query.epoch() / 2,
        [this, id, epoch_time]() { RepairCheck(id, epoch_time); });
  }
}

void InNetworkEngine::CloseEpoch(QueryId id, SimTime epoch_time) {
  auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  BsQueryState& state = it->second;

  EpochResult result;
  result.query = id;
  result.epoch_time = epoch_time;
  result.kind = state.query.kind();
  int contributing = 0;
  if (state.query.kind() == QueryKind::kAcquisition) {
    auto rows_it = state.rows.find(epoch_time);
    if (rows_it != state.rows.end()) {
      // Shared rows carry the union projection; narrow to this query's
      // attribute list so the answer matches the baseline's exactly.  The
      // per-epoch map is keyed by source node, so rows come out already
      // deduplicated and in node order.
      for (const auto& [node, row] : rows_it->second) {
        Reading projected(row.node(), row.time());
        for (Attribute attr : state.query.attributes()) {
          projected.Set(attr, row.GetOrThrow(attr));
        }
        result.rows.push_back(std::move(projected));
      }
    }
    contributing = static_cast<int>(result.rows.size());
  } else {
    std::vector<PartialAggregate> merged;
    auto agg_it = state.partials.find(epoch_time);
    if (agg_it != state.partials.end()) merged = std::move(agg_it->second);
    if (!merged.empty()) contributing = static_cast<int>(merged.front().count());
    for (std::size_t i = 0; i < state.query.aggregates().size(); ++i) {
      const AggregateSpec& spec = state.query.aggregates()[i];
      if (i < merged.size()) {
        result.aggregates.emplace_back(spec, merged[i].Finalize());
      } else {
        result.aggregates.emplace_back(spec,
                                       PartialAggregate(spec).Finalize());
      }
    }
  }
  if (arq_) {
    // Coverage: how much of the *learned* expected contributor set is
    // accounted for — by data or by a repair-affirmed "no data".  The
    // expectation is the recent-contributor history (the SRT install set
    // overestimates wildly under selective predicates), so the very first
    // epoch reports full coverage and losses show up from the second on.
    const SimTime horizon =
        epoch_time - kRepairHistoryEpochs * state.query.epoch();
    result.contributing_nodes = contributing;
    if (state.query.kind() == QueryKind::kAcquisition) {
      int expected_alive = 0;
      for (const auto& [node, last] : state.last_contributed) {
        if (last >= horizon && !network_.IsFailed(node)) ++expected_alive;
      }
      int accounted = contributing;
      const auto nd_it = state.no_data.find(epoch_time);
      if (nd_it != state.no_data.end()) {
        accounted += static_cast<int>(nd_it->second.size());
      }
      result.coverage =
          expected_alive == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(accounted) /
                                  static_cast<double>(expected_alive));
      // Age out nodes whose last row fell off the horizon so the ledger
      // tracks the active contributor set, not all-time history.
      std::erase_if(state.last_contributed,
                    [horizon](const auto& e) { return e.second < horizon; });
    } else {
      // Aggregation has no per-node rows; the expectation is the largest
      // recent contributor count (aggregates get no gap repair — merging
      // a repaired partial could double-count — only the annotation).
      std::int64_t expected = contributing;
      for (const auto& [t, count] : state.agg_counts) {
        if (t >= horizon) expected = std::max(expected, count);
      }
      result.coverage =
          expected == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(contributing) /
                                  static_cast<double>(expected));
      state.agg_counts[epoch_time] = contributing;
      state.agg_counts.erase(state.agg_counts.begin(),
                             state.agg_counts.lower_bound(horizon));
    }
  }
  // Advance the watermark and drop everything at or before it: closed
  // epochs can never reach the user again, so the per-epoch ledgers stay
  // bounded even when stragglers keep trickling in.
  state.closed_through = std::max(state.closed_through, epoch_time);
  state.rows.erase(state.rows.begin(), state.rows.upper_bound(epoch_time));
  state.partials.erase(state.partials.begin(),
                       state.partials.upper_bound(epoch_time));
  state.no_data.erase(state.no_data.begin(),
                      state.no_data.upper_bound(epoch_time));
  if (trace_ != nullptr) {
    EmitTrace(TraceEvent("tier2.epoch_close")
                  .With("query", static_cast<std::int64_t>(id))
                  .With("epoch_t", epoch_time)
                  .With("rows", static_cast<std::int64_t>(result.rows.size()))
                  .With("aggregates",
                        static_cast<std::int64_t>(result.aggregates.size())));
  }
  if (sink_ != nullptr) sink_->OnResult(result);
  ScheduleEpochClose(id, epoch_time + state.query.epoch());
}

}  // namespace ttmqo
