#include "reliable/arq.h"

#include <algorithm>

#include "util/check.h"

namespace ttmqo {

namespace {

template <typename Stream>
SimDuration RtoFrom(const ArqOptions& options, int backoff_exponent,
                    Stream& rng) {
  CheckArg(backoff_exponent >= 0, "ArqRto: negative backoff exponent");
  SimDuration rto = options.base_rto_ms;
  for (int i = 0; i < backoff_exponent && rto < options.max_rto_ms; ++i) {
    rto *= 2;
  }
  rto = std::min(rto, options.max_rto_ms);
  if (options.jitter_ms > 0) {
    rto += rng.UniformInt(0, options.jitter_ms);
  }
  return rto;
}

std::uint64_t JitterSalt(NodeId sender, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(sender) << 32) |
         static_cast<std::uint64_t>(seq);
}

}  // namespace

SimDuration ArqRto(const ArqOptions& options, int backoff_exponent,
                   Rng& rng) {
  return RtoFrom(options, backoff_exponent, rng);
}

SimDuration ArqRto(const ArqOptions& options, int backoff_exponent,
                   RngPrefixStream& rng) {
  return RtoFrom(options, backoff_exponent, rng);
}

Rng ArqJitterRng(std::uint64_t seed, NodeId sender, std::uint32_t seq) {
  return Rng(seed).Fork(JitterSalt(sender, seq));
}

RngPrefixStream ArqJitterStream(std::uint64_t seed, NodeId sender,
                                std::uint32_t seq) {
  return RngPrefixStream(Rng::ForkSeed(seed, JitterSalt(sender, seq)));
}

bool ArqSeenWindow::Admit(std::uint32_t seq) {
  const std::uint64_t size = std::uint64_t{window_} + 1;
  if (ring_.empty()) ring_.assign((size + 63) / 64, 0);
  if (seq > max_seen_) {
    // A new newest seq is never a duplicate.  Slide first: the slots of
    // (max_seen, seq] still hold seqs that just fell out of the window.
    Clear((std::uint64_t{max_seen_} + 1) % size,
          std::min<std::uint64_t>(seq - max_seen_, size));
    max_seen_ = seq;
  } else if (max_seen_ > window_ && seq < max_seen_ - window_) {
    return false;  // too old to tell: assume a duplicate
  }
  const std::uint64_t slot = seq % size;
  std::uint64_t& word = ring_[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

void ArqSeenWindow::Clear(std::uint64_t from, std::uint64_t count) {
  const std::uint64_t size = std::uint64_t{window_} + 1;
  while (count > 0) {
    const std::uint64_t run = std::min(count, size - from);
    // Word-wise clear of [from, from + run).
    for (std::uint64_t lo = from, hi = from + run; lo < hi;) {
      const std::uint64_t offset = lo % 64;
      const std::uint64_t n = std::min<std::uint64_t>(64 - offset, hi - lo);
      const std::uint64_t mask =
          n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1) << offset;
      ring_[lo / 64] &= ~mask;
      lo += n;
    }
    count -= run;
    from = 0;
  }
}

ArqTransport::ArqTransport(Network& network, ArqOptions options)
    : network_(network),
      options_(options),
      upper_(network.topology().size()),
      next_seq_(network.topology().size(), 0),
      live_(network.topology().size()),
      seen_(network.topology().size()),
      quarantine_(network.topology().size()) {
  CheckArg(options_.base_rto_ms > 0 && options_.max_rto_ms >= options_.base_rto_ms,
           "ArqTransport: bad RTO bounds");
  CheckArg(options_.max_attempts >= 1, "ArqTransport: need >= 1 attempt");
  CheckArg(options_.dedup_window <= kArqMaxDedupWindow,
           "ArqTransport: dedup window too large");
}

void ArqTransport::Attach(NodeId node, Network::Receiver upper) {
  upper_[node] = std::move(upper);
  network_.SetReceiver(node, [this, node](const Message& msg,
                                          bool addressed) {
    OnReceive(node, msg, addressed);
  });
}

void ArqTransport::Send(Message msg, SimTime deadline, int reroutes) {
  CheckArg(msg.mode != AddressMode::kBroadcast,
           "ArqTransport::Send: broadcasts are fire-and-forget");
  const NodeId sender = msg.sender;
  const std::uint32_t seq = next_seq_[sender]++;

  const std::uint32_t index = AcquireSlot();
  PendingSlot& slot = slots_[index];
  slot.seq = seq;
  slot.deadline = deadline;
  slot.attempt = 1;
  slot.reroutes = reroutes;
  slot.rng = ArqJitterStream(options_.seed, sender, seq);
  slot.unacked = msg.destinations;
  slot.msg = std::move(msg);
  slot.msg.payload = std::make_shared<ArqDataPayload>(
      seq, std::move(slot.msg.payload));
  slot.msg.payload_bytes += kArqHeaderBytes;
  live_[sender].emplace_back(seq, index);
  ++sends_;

  // Give-up re-routes and repair traffic fire from timers, when the
  // sender may have dozed off between epochs; the radio insists on an
  // awake sender for every transmission.
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(slot.msg);
  ScheduleTimeout(index);
}

void ArqTransport::ScheduleTimeout(std::uint32_t index) {
  PendingSlot& slot = slots_[index];
  const SimDuration rto = ArqRto(options_, slot.attempt - 1, slot.rng);
  const auto fire = [this, index, generation = slot.generation]() {
    OnTimeout(index, generation);
  };
  static_assert(Simulator::EventFn::kFitsInline<decltype(fire)>,
                "ARQ retry timers must stay in the pooled inline slab");
  network_.sim().ScheduleAfter(rto, fire);
}

void ArqTransport::OnTimeout(std::uint32_t index, std::uint32_t generation) {
  PendingSlot& slot = slots_[index];
  if (!slot.in_use || slot.generation != generation) return;  // acked/stale
  const SimTime now = network_.sim().Now();
  const NodeId sender = slot.msg.sender;

  if (slot.attempt >= options_.max_attempts || now >= slot.deadline) {
    // Budget spent: strike every silent destination, hand the original
    // payload to the engine (it may re-route), and recycle the slot.
    ++give_ups_;
    for (NodeId dest : slot.unacked) Strike(sender, dest);
    if (give_up_) {
      const auto* data =
          static_cast<const ArqDataPayload*>(slot.msg.payload.get());
      GiveUpInfo info;
      info.cls = slot.msg.cls;
      info.sender = sender;
      info.inner = data->inner;
      info.inner_bytes = slot.msg.payload_bytes - kArqHeaderBytes;
      info.unacked = std::move(slot.unacked);
      info.deadline = slot.deadline;
      info.reroutes = slot.reroutes;
      ReleaseSlot(index);
      give_up_(info);
      return;
    }
    ReleaseSlot(index);
    return;
  }

  // Retransmit to the silent subset only.
  ++retransmits_;
  ++slot.attempt;
  Message retry = slot.msg;
  retry.destinations = slot.unacked;
  retry.mode = retry.destinations.size() == 1 ? AddressMode::kUnicast
                                              : AddressMode::kMulticast;
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(std::move(retry));
  ScheduleTimeout(index);
}

void ArqTransport::OnReceive(NodeId self, const Message& msg,
                             bool addressed) {
  if (const auto* data = PayloadAs<ArqDataPayload>(msg.payload.get())) {
    if (addressed) {
      // Ack every addressed copy — re-acking duplicates is what resolves
      // the ack-was-lost ambiguity on the sender side.
      SendAck(self, msg.sender, data->seq);
      auto& windows = seen_[self];
      if (windows.empty()) {
        windows.assign(network_.topology().NeighborsOf(self).size(),
                       ArqSeenWindow(options_.dedup_window));
      }
      if (!windows[network_.topology().NeighborIndex(self, msg.sender)]
               .Admit(data->seq)) {
        ++duplicates_dropped_;
        return;
      }
    }
    if (!upper_[self]) return;
    // Hand up the application-level message so the engine sees exactly
    // what it would without the transport (overhearing included).  The
    // scratch is moved out while the handler runs, so a nested receive
    // would build its own instead of overwriting this one.
    Message inner = std::move(inner_);
    inner.cls = msg.cls;
    inner.mode = msg.mode;
    inner.sender = msg.sender;
    inner.destinations.assign(msg.destinations.begin(),
                              msg.destinations.end());
    inner.payload_bytes = msg.payload_bytes - kArqHeaderBytes;
    inner.payload = data->inner;
    upper_[self](inner, addressed);
    inner.payload.reset();
    inner_ = std::move(inner);
    return;
  }

  if (const auto* ack = PayloadAs<ArqAckPayload>(msg.payload.get())) {
    if (addressed) {
      const auto& live = live_[self];
      const auto it = std::find_if(
          live.begin(), live.end(),
          [&](const auto& entry) { return entry.first == ack->seq; });
      if (it != live.end()) {
        const std::uint32_t index = it->second;
        PendingSlot& slot = slots_[index];
        std::erase(slot.unacked, msg.sender);
        ClearStrikes(self, msg.sender);
        if (slot.unacked.empty()) ReleaseSlot(index);
      }
    }
    // Fall through to the engine: an overheard ack is still proof of life
    // for its sender (the engine's liveness tracking sees every message).
    if (upper_[self]) upper_[self](msg, addressed);
    return;
  }

  if (upper_[self]) upper_[self](msg, addressed);
}

void ArqTransport::SendAck(NodeId self, NodeId to, std::uint32_t seq) {
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  // Recycle a pool entry whose previous network copy has been released;
  // mutating it is safe once this transport holds the only reference.
  std::shared_ptr<ArqAckPayload> payload;
  for (auto& pooled : ack_pool_) {
    if (pooled.use_count() == 1) {
      pooled->seq = seq;
      payload = pooled;
      break;
    }
  }
  if (payload == nullptr) {
    payload = std::make_shared<ArqAckPayload>(seq);
    if (ack_pool_.size() < 64) ack_pool_.push_back(payload);
  }
  Message ack;
  ack.cls = MessageClass::kControl;
  ack.mode = AddressMode::kUnicast;
  ack.sender = self;
  ack.destinations.push_back(to);
  ack.payload_bytes = kArqAckBytes;
  ack.payload = std::move(payload);
  ++acks_sent_;
  network_.Send(std::move(ack));
}

bool ArqTransport::IsQuarantined(NodeId self, NodeId neighbor) const {
  const auto& per_node = quarantine_[self];
  if (per_node.empty()) return false;  // never struck anyone
  return network_.sim().Now() <
         per_node[network_.topology().NeighborIndex(self, neighbor)].until;
}

ArqTransport::Quarantine& ArqTransport::QuarantineOf(NodeId self,
                                                     NodeId neighbor) {
  auto& per_node = quarantine_[self];
  if (per_node.empty()) {
    per_node.resize(network_.topology().NeighborsOf(self).size());
  }
  return per_node[network_.topology().NeighborIndex(self, neighbor)];
}

void ArqTransport::Strike(NodeId self, NodeId neighbor) {
  Quarantine& q = QuarantineOf(self, neighbor);
  if (++q.strikes < options_.quarantine_threshold) return;
  q.strikes = 0;
  q.backoff = q.backoff == 0
                  ? options_.quarantine_base_ms
                  : std::min(q.backoff * 2, options_.quarantine_max_ms);
  q.until = network_.sim().Now() + q.backoff;
  ++quarantines_;
  if (quarantine_hook_) quarantine_hook_(self, neighbor, q.until);
}

void ArqTransport::ClearStrikes(NodeId self, NodeId neighbor) {
  if (quarantine_[self].empty()) return;  // never struck anyone
  Quarantine& q = QuarantineOf(self, neighbor);
  q.strikes = 0;
  q.until = 0;
  // Hysteresis: one good ack halves the backoff instead of erasing it, so
  // a flapping neighbor earns trust back gradually.
  q.backoff /= 2;
}

std::uint32_t ArqTransport::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    slots_[index].in_use = true;
    return index;
  }
  slots_.emplace_back();
  slots_.back().in_use = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ArqTransport::ReleaseSlot(std::uint32_t index) {
  PendingSlot& slot = slots_[index];
  auto& live = live_[slot.msg.sender];
  const auto it = std::find_if(live.begin(), live.end(), [&](const auto& e) {
    return e.first == slot.seq;
  });
  *it = live.back();
  live.pop_back();
  slot.in_use = false;
  ++slot.generation;
  slot.msg = Message{};
  slot.unacked.clear();
  free_slots_.push_back(index);
}

}  // namespace ttmqo
