#include "net/batched_network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace ttmqo {

namespace {
std::pair<NodeId, NodeId> LinkKey(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}
}  // namespace

BatchedNetwork::BatchedNetwork(ViewlessTag, const Topology& topology,
                               RadioParams radio, ChannelParams channel,
                               std::span<const std::uint64_t> seeds)
    : topology_(&topology),
      radio_(radio),
      channel_(channel),
      lanes_(static_cast<std::uint32_t>(seeds.size())),
      core_(lanes_),
      num_failed_(lanes_, 0),
      num_down_(lanes_, 0),
      default_link_loss_(lanes_, 0.0),
      link_loss_(lanes_),
      link_drops_(lanes_, 0),
      total_flights_(lanes_, 0),
      active_senders_(lanes_),
      receivers_(topology.size() * lanes_),
      asleep_(topology.size() * lanes_, 0),
      failed_(topology.size() * lanes_, 0),
      down_(topology.size() * lanes_, 0),
      down_since_(topology.size() * lanes_, 0),
      sleep_since_(topology.size() * lanes_, 0),
      busy_until_(topology.size() * lanes_, 0),
      flight_ends_(topology.size() * lanes_),
      active_slot_(topology.size() * lanes_, 0) {
  CheckArg(!seeds.empty() && seeds.size() <= SimCore::kMaxLanes,
           "BatchedNetwork: lanes must be in [1, 64]");
  channel_.Validate();
  link_quality_.reserve(lanes_);
  ledgers_.reserve(lanes_);
  rng_.reserve(lanes_);
  loss_rng_.reserve(lanes_);
  observers_.resize(lanes_);
  for (std::uint32_t l = 0; l < lanes_; ++l) {
    // Exactly the serial Network's seed derivations, per lane.
    link_quality_.emplace_back(topology, seeds[l] ^ 0x6c696e6bULL);
    ledgers_.emplace_back(topology.size());
    rng_.emplace_back(seeds[l]);
    loss_rng_.emplace_back(seeds[l] ^ 0x6c6f7373ULL);
  }
  core_.SetGroupDispatcher(this);
}

BatchedNetwork::BatchedNetwork(const Topology& topology, RadioParams radio,
                               ChannelParams channel,
                               std::span<const std::uint64_t> seeds)
    : BatchedNetwork(ViewlessTag{}, topology, radio, channel, seeds) {
  for (std::uint32_t l = 0; l < lanes_; ++l) {
    lane_views_.emplace_back(*this, l);
  }
}

std::unique_ptr<BatchedNetwork> BatchedNetwork::MakeViewless(
    const Topology& topology, RadioParams radio, ChannelParams channel,
    std::uint64_t seed) {
  const std::uint64_t seeds[1] = {seed};
  // The tag constructor is private, so std::make_unique cannot reach it;
  // ownership is taken immediately.
  return std::unique_ptr<BatchedNetwork>(
      new BatchedNetwork(  // ttmqo-lint: allow(raw-alloc): private tag ctor
          ViewlessTag{}, topology, radio, channel, std::span(seeds)));
}

void BatchedNetwork::SetReceiver(std::uint32_t lane, NodeId node,
                                 Network::Receiver recv) {
  receivers_.at(Idx(node, lane)) = std::move(recv);
}

void BatchedNetwork::SetAsleep(std::uint32_t lane, NodeId node, bool asleep) {
  const std::size_t i = Idx(node, lane);
  if (failed_.at(i) || down_.at(i)) return;  // no power state while dark
  if ((asleep_.at(i) != 0) == asleep) return;
  asleep_[i] = asleep ? 1 : 0;
  if (!observers_[lane].empty()) {
    observers_[lane].OnSleepChange(core_.Now(), node, asleep);
  }
  if (asleep) {
    sleep_since_[i] = core_.Now();
  } else {
    ledgers_[lane].AddSleep(node,
                            static_cast<double>(core_.Now() - sleep_since_[i]));
  }
}

void BatchedNetwork::FailNode(std::uint32_t lane, NodeId node) {
  CheckArg(node != kBaseStationId, "Network::FailNode: cannot fail the sink");
  CheckArg(node < topology_->size(), "Network::FailNode: bad node");
  const std::size_t i = Idx(node, lane);
  if (failed_[i]) return;
  if (down_[i]) {  // a crash absorbs a pending outage
    down_[i] = 0;
    --num_down_[lane];
  }
  failed_[i] = 1;
  ++num_failed_[lane];
  obs::RecordFlight("fault.crash", core_.Now(), node);
  if (!observers_[lane].empty()) {
    observers_[lane].OnNodeFailed(core_.Now(), node);
  }
}

void BatchedNetwork::SetDown(std::uint32_t lane, NodeId node) {
  CheckArg(node != kBaseStationId, "Network::SetDown: cannot down the sink");
  CheckArg(node < topology_->size(), "Network::SetDown: bad node");
  const std::size_t i = Idx(node, lane);
  if (failed_[i] || down_[i]) return;
  if (asleep_[i]) SetAsleep(lane, node, false);  // close the open sleep span
  down_[i] = 1;
  down_since_[i] = core_.Now();
  ++num_down_[lane];
  obs::RecordFlight("fault.down", core_.Now(), node);
  if (!observers_[lane].empty()) {
    observers_[lane].OnNodeDown(core_.Now(), node);
  }
}

void BatchedNetwork::Recover(std::uint32_t lane, NodeId node) {
  CheckArg(node < topology_->size(), "Network::Recover: bad node");
  const std::size_t i = Idx(node, lane);
  if (failed_[i] || !down_[i]) return;
  down_[i] = 0;
  --num_down_[lane];
  obs::RecordFlight("fault.recover", core_.Now(), node,
                    core_.Now() - down_since_[i]);
  if (!observers_[lane].empty()) {
    observers_[lane].OnNodeRecovered(core_.Now(), node,
                                     core_.Now() - down_since_[i]);
  }
}

void BatchedNetwork::SetDefaultLinkLoss(std::uint32_t lane, double p) {
  CheckArg(p >= 0.0 && p < 1.0,
           "Network::SetDefaultLinkLoss: p must be in [0,1)");
  default_link_loss_[lane] = p;
}

void BatchedNetwork::SetLinkLoss(std::uint32_t lane, NodeId a, NodeId b,
                                 double p) {
  CheckArg(p >= 0.0 && p < 1.0, "Network::SetLinkLoss: p must be in [0,1)");
  CheckArg(topology_->AreNeighbors(a, b),
           "Network::SetLinkLoss: nodes are not radio neighbors");
  link_loss_[lane][LinkKey(a, b)] = p;
}

void BatchedNetwork::ClearLinkLoss(std::uint32_t lane, NodeId a, NodeId b) {
  link_loss_[lane].erase(LinkKey(a, b));
}

double BatchedNetwork::LinkLossOf(std::uint32_t lane, NodeId a,
                                  NodeId b) const {
  const auto it = link_loss_[lane].find(LinkKey(a, b));
  return it != link_loss_[lane].end() ? it->second : default_link_loss_[lane];
}

void BatchedNetwork::Send(std::uint32_t lane, Message msg) {
  CheckArg(msg.sender < topology_->size(), "Network::Send: bad sender");
  const std::size_t i = Idx(msg.sender, lane);
  if (failed_[i] || down_[i]) {
    return;  // a dark radio transmits nothing
  }
  CheckArg(!asleep_[i], "Network::Send: sender is asleep");
  if (msg.mode == AddressMode::kBroadcast) {
    CheckArg(msg.destinations.empty(),
             "Network::Send: broadcast must not list destinations");
  } else {
    CheckArg(!msg.destinations.empty(),
             "Network::Send: unicast/multicast needs destinations");
    CheckArg(msg.mode != AddressMode::kUnicast || msg.destinations.size() == 1,
             "Network::Send: unicast takes exactly one destination");
    for (NodeId dest : msg.destinations) {
      CheckArg(topology_->AreNeighbors(msg.sender, dest),
               "Network::Send: destination is not a radio neighbor");
    }
  }
  BeginAttempt(1ULL << lane, std::move(msg), /*attempt=*/0);
}

std::uint32_t BatchedNetwork::AllocGroup() {
  if (!free_groups_.empty()) {
    const std::uint32_t slot = free_groups_.back();
    free_groups_.pop_back();
    return slot;
  }
  Check(groups_.size() < std::numeric_limits<std::uint32_t>::max(),
        "BatchedNetwork: group slab exhausted");
  groups_.emplace_back();
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void BatchedNetwork::DispatchGroup(std::uint32_t slot) {
  // Copy the fields out and recycle the slot *before* running the handler
  // (which may allocate new groups, growing the slab) — mirroring the
  // simulator's own slab discipline.
  GroupEvent& g = groups_[slot];
  const std::uint64_t mask = g.mask;
  const GroupEvent::Kind kind = g.kind;
  const int attempt = g.attempt;
  const SimTime started = g.started;
  const NodeId node = g.node;
  const std::uint32_t set = g.set;
  Message msg = std::move(g.msg);
  free_groups_.push_back(slot);
  // One serial event per member lane, exactly as N serial loops would count.
  core_.AddExecuted(mask);
  switch (kind) {
    case GroupEvent::Kind::kComplete:
      CompleteAttempt(mask, std::move(msg), attempt, started);
      break;
    case GroupEvent::Kind::kRetry:
      // `attempt` stores the collided attempt; the retry is the next one.
      BeginAttempt(mask, std::move(msg), attempt + 1);
      break;
    case GroupEvent::Kind::kBeacon:
      BeaconTick(mask, node, set);
      break;
  }
}

void BatchedNetwork::AddFlight(std::uint32_t lane, NodeId sender, SimTime end) {
  std::vector<SimTime>& ends = flight_ends_[Idx(sender, lane)];
  if (ends.empty()) {
    active_slot_[Idx(sender, lane)] =
        static_cast<std::uint32_t>(active_senders_[lane].size());
    active_senders_[lane].push_back(sender);
  }
  ends.push_back(end);
  ++total_flights_[lane];
}

void BatchedNetwork::RemoveFlight(std::uint32_t lane, NodeId sender,
                                  SimTime end) {
  std::vector<SimTime>& ends = flight_ends_[Idx(sender, lane)];
  for (std::size_t i = 0; i < ends.size(); ++i) {
    if (ends[i] != end) continue;
    ends[i] = ends.back();
    ends.pop_back();
    --total_flights_[lane];
    if (ends.empty()) {
      std::vector<NodeId>& active = active_senders_[lane];
      const std::uint32_t slot = active_slot_[Idx(sender, lane)];
      const NodeId last = active.back();
      active[slot] = last;
      active_slot_[Idx(last, lane)] = slot;
      active.pop_back();
    }
    return;
  }
}

void BatchedNetwork::BeginAttempt(std::uint64_t mask, Message msg,
                                  int attempt) {
  const NodeId sender = msg.sender;
  const double duration_ms = radio_.TransmitDurationMs(msg.payload_bytes);
  const auto duration = static_cast<SimDuration>(std::ceil(duration_ms));
  const SimTime now = core_.Now();
  // Lanes whose radio frees at different times start (and hence complete) at
  // different times: bucket them by start and schedule one completion group
  // per distinct start.  In the lockstep steady state every lane lands in
  // one bucket and the whole batch costs a single heap record.
  SimTime starts[SimCore::kMaxLanes];
  std::uint64_t submasks[SimCore::kMaxLanes];
  std::size_t num_buckets = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
    const std::size_t i = Idx(sender, lane);
    const SimTime start = std::max(now, busy_until_[i]);
    busy_until_[i] = start + duration;
    ledgers_[lane].ChargeTransmit(sender, msg.cls, duration_ms,
                                  /*is_retransmission=*/attempt > 0);
    if (!observers_[lane].empty()) {
      observers_[lane].OnTransmit(start, msg, duration_ms, attempt > 0);
    }
    AddFlight(lane, sender, start + duration);
    std::size_t b = 0;
    while (b < num_buckets && starts[b] != start) ++b;
    if (b == num_buckets) {
      starts[b] = start;
      submasks[b] = 0;
      ++num_buckets;
    }
    submasks[b] |= 1ULL << lane;
  }
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const std::uint32_t slot = AllocGroup();
    GroupEvent& g = groups_[slot];
    g.mask = submasks[b];
    g.kind = GroupEvent::Kind::kComplete;
    g.attempt = attempt;
    g.started = starts[b];
    // The message moves into the last bucket; earlier buckets (diverged
    // lanes only) take copies.  Copy-assignment into a recycled slot reuses
    // the destination vector's capacity, so the lockstep path — one bucket,
    // one move — never allocates.
    if (b + 1 == num_buckets) {
      g.msg = std::move(msg);
    } else {
      g.msg = msg;
    }
    core_.ScheduleGroupAt(starts[b] + duration, slot);
  }
}

void BatchedNetwork::CompleteAttempt(std::uint64_t mask, Message msg,
                                     int attempt, SimTime started) {
  TTMQO_SPAN_SAMPLED("net.complete_attempt", 8);
  const NodeId sender = msg.sender;
  const SimTime now = core_.Now();
  std::uint64_t deliver_mask = 0;
  std::uint64_t retry_mask = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
    // Retire this flight record (even for a sender that went dark mid-air,
    // so stale flights never linger in the interference count).
    RemoveFlight(lane, sender, now);
    const std::size_t i = Idx(sender, lane);
    if (failed_[i] || down_[i]) {
      continue;  // went dark mid-air: nothing is delivered, retries die
    }
    bool collided = false;
    if (channel_.collision_prob > 0.0) {
      const std::size_t interferers = CountInterferers(lane, sender, started);
      if (interferers > 0) {
        const double survive = std::pow(1.0 - channel_.collision_prob,
                                        static_cast<double>(interferers));
        collided = !rng_[lane].Bernoulli(survive);
      }
    }
    if (!collided) {
      deliver_mask |= 1ULL << lane;
    } else if (attempt >= channel_.max_retries) {
      ledgers_[lane].CountDrop(sender);
      if (!observers_[lane].empty()) observers_[lane].OnDrop(now, msg);
    } else {
      retry_mask |= 1ULL << lane;
    }
  }
  // A lane either delivers or retries, never both, so handling all the
  // deliveries before scheduling the retry group only reorders work across
  // lanes — each lane's serial order is untouched.
  if (deliver_mask != 0) Deliver(deliver_mask, msg);
  if (retry_mask != 0) {
    const auto backoff = static_cast<SimDuration>(
        std::ceil(channel_.backoff_ms * static_cast<double>(attempt + 1)));
    const std::uint32_t slot = AllocGroup();
    GroupEvent& g = groups_[slot];
    g.mask = retry_mask;
    g.kind = GroupEvent::Kind::kRetry;
    g.attempt = attempt;
    g.msg = std::move(msg);
    core_.ScheduleGroupAt(now + backoff, slot);
  }
}

std::size_t BatchedNetwork::CountInterferers(std::uint32_t lane, NodeId sender,
                                             SimTime started) const {
  // Transmissions overlapping [started, now] whose sender lies within the
  // precomputed interference set (twice the radio range) of `sender`.  The
  // `end > started` filter preserves the exact legacy overlap semantics.
  // The count is the same over either side of the intersection, so walk
  // the shorter one: the interference set (senders without flights add
  // nothing) or the lane's active senders (filtered by the bitset).
  std::size_t count = 0;
  const auto add_overlaps = [&](NodeId other) {
    for (const SimTime end : flight_ends_[Idx(other, lane)]) {
      count += end > started ? 1 : 0;
    }
  };
  const std::span<const NodeId> interferers = topology_->InterferersOf(sender);
  const std::vector<NodeId>& active = active_senders_[lane];
  if (interferers.size() < active.size()) {
    for (const NodeId other : interferers) add_overlaps(other);
  } else {
    for (const NodeId other : active) {
      if (other != sender && topology_->InInterferenceRange(sender, other)) {
        add_overlaps(other);
      }
    }
  }
  return count;
}

void BatchedNetwork::Deliver(std::uint64_t mask, const Message& msg) {
  TTMQO_SPAN_SAMPLED("net.deliver", 8);
  // Hot-path short circuits, hoisted out of the per-neighbor loop: the
  // destination-membership strategy is picked once (it is lane-independent),
  // and the loss lookup is skipped entirely for lossless lanes — the common
  // case.  Large multicasts are answered by binary search over a sorted
  // scratch copy; small ones by a linear scan of the original.
  constexpr std::size_t kSmallDestinations = 8;
  const bool use_sorted = msg.mode == AddressMode::kMulticast &&
                          msg.destinations.size() > kSmallDestinations;
  if (use_sorted) {
    dest_scratch_.assign(msg.destinations.begin(), msg.destinations.end());
    std::sort(dest_scratch_.begin(), dest_scratch_.end());
  }
  std::uint64_t lossy_mask = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
    if (default_link_loss_[lane] > 0.0 || !link_loss_[lane].empty()) {
      lossy_mask |= 1ULL << lane;
    }
  }
  // Neighbors outer, lanes inner: the inner loop walks the contiguous
  // [node][lane] stripes of the state arrays.  Per lane the receiver-call
  // order is still exactly the serial neighbor order.
  for (NodeId neighbor : topology_->NeighborsOf(msg.sender)) {
    const bool addressed =
        msg.mode == AddressMode::kBroadcast ||
        (use_sorted
             ? std::binary_search(dest_scratch_.begin(), dest_scratch_.end(),
                                  neighbor)
             : std::find(msg.destinations.begin(), msg.destinations.end(),
                         neighbor) != msg.destinations.end());
    const std::size_t base = static_cast<std::size_t>(neighbor) * lanes_;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
      const std::size_t i = base + lane;
      if (failed_[i] || down_[i]) continue;
      const Network::Receiver& receiver = receivers_[i];
      if (!receiver) continue;
      // Low-power listening: a sleeping radio still catches traffic
      // addressed to it (the sender's preamble wakes it) but cannot
      // overhear.
      if (asleep_[i] && !addressed) continue;
      // Independent per-receiver link loss (orthogonal to the contention
      // model): the sender never learns about the loss and does not retry.
      if ((lossy_mask >> lane) & 1) {
        const double loss = LinkLossOf(lane, msg.sender, neighbor);
        if (loss > 0.0 && loss_rng_[lane].Bernoulli(loss)) {
          ++link_drops_[lane];
          if (!observers_[lane].empty()) {
            observers_[lane].OnLinkDrop(core_.Now(), msg, neighbor);
          }
          continue;
        }
      }
      if (addressed) ledgers_[lane].CountReceive(neighbor);
      receiver(msg, addressed);
    }
  }
}

void BatchedNetwork::StartMaintenanceBeacons(SimDuration period,
                                             std::size_t payload_bytes) {
  ScheduleBeacons(AllLanesMask(), period, payload_bytes);
}

void BatchedNetwork::StartMaintenanceBeaconsLane(std::uint32_t lane,
                                                 SimDuration period,
                                                 std::size_t payload_bytes) {
  ScheduleBeacons(1ULL << lane, period, payload_bytes);
}

void BatchedNetwork::ScheduleBeacons(std::uint64_t mask, SimDuration period,
                                     std::size_t payload_bytes) {
  CheckArg(period > 0, "StartMaintenanceBeacons: period must be positive");
  // Each call registers one beacon set; the per-node tick groups reference
  // it by index and reschedule themselves through the pooled group slab —
  // no per-node callable chain, no per-tick allocation.
  const auto set = static_cast<std::uint32_t>(beacon_sets_.size());
  beacon_sets_.push_back(BeaconSet{period, payload_bytes});
  for (NodeId node : topology_->AllNodes()) {
    // Stagger nodes across the period so beacons do not synchronize.
    const SimDuration offset =
        static_cast<SimDuration>(node) * period /
        static_cast<SimDuration>(topology_->size());
    const std::uint32_t slot = AllocGroup();
    GroupEvent& g = groups_[slot];
    g.mask = mask;
    g.kind = GroupEvent::Kind::kBeacon;
    g.node = node;
    g.set = set;
    core_.ScheduleGroupAt(core_.Now() + offset, slot);
  }
}

void BatchedNetwork::BeaconTick(std::uint64_t mask, NodeId node,
                                std::uint32_t set) {
  // Beacon ticks are the re-coalescing point: the tick period is fixed, so
  // the group never splits — once a lane's radio has drained its backlog,
  // its beacon sends merge right back into the shared completion groups.
  std::uint64_t alive_mask = 0;
  std::uint64_t send_mask = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
    const std::size_t i = Idx(node, lane);
    if (failed_[i]) continue;  // a dead node's beacon chain ends (this lane)
    alive_mask |= 1ULL << lane;
    if (!asleep_[i] && !down_[i]) send_mask |= 1ULL << lane;
  }
  const BeaconSet& beacon = beacon_sets_[set];
  if (send_mask != 0) {
    Message msg;
    msg.cls = MessageClass::kMaintenance;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = node;
    msg.payload_bytes = beacon.payload_bytes;
    // `Send`'s validation is pre-satisfied for a broadcast from an awake,
    // alive sender, so the attempt starts directly — one shared message.
    BeginAttempt(send_mask, std::move(msg), /*attempt=*/0);
  }
  if (alive_mask != 0) {
    const std::uint32_t slot = AllocGroup();
    GroupEvent& g = groups_[slot];
    g.mask = alive_mask;
    g.kind = GroupEvent::Kind::kBeacon;
    g.node = node;
    g.set = set;
    core_.ScheduleGroupAt(core_.Now() + beacon.period, slot);
  }
}

void BatchedNetwork::FinalizeAccounting(std::uint32_t lane) {
  for (NodeId node = 0; node < topology_->size(); ++node) {
    const std::size_t i = Idx(node, lane);
    if (!asleep_[i]) continue;
    ledgers_[lane].AddSleep(
        node, static_cast<double>(core_.Now() - sleep_since_[i]));
    sleep_since_[i] = core_.Now();
  }
}

}  // namespace ttmqo
