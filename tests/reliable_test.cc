// Unit tests for the ARQ transport (reliable/arq.h): backoff arithmetic,
// per-(sender, seq) jitter streams and their engine-free prefix form, the
// ring dedup window, ack/retransmit bookkeeping over a lossless grid,
// deadline budgets, and the quarantine hysteresis that makes flapping
// neighbors progressively more expensive to re-trust.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "reliable/arq.h"
#include "reliable/profile.h"
#include "util/rng.h"

namespace ttmqo {
namespace {

struct ProbePayload final : Payload {
  explicit ProbePayload(int v) : value(v) {}
  int value;
};

ArqOptions TestOptions() {
  ArqOptions options;
  options.enabled = true;
  options.seed = 99;
  return options;
}

// ---------------------------------------------------------------------------
// Backoff arithmetic.

TEST(ArqRtoTest, DoublesPerAttemptAndCapsWithoutJitter) {
  ArqOptions options = TestOptions();
  options.jitter_ms = 0;
  Rng rng(1);
  EXPECT_EQ(ArqRto(options, 0, rng), 256);
  EXPECT_EQ(ArqRto(options, 1, rng), 512);
  EXPECT_EQ(ArqRto(options, 2, rng), 1024);
  EXPECT_EQ(ArqRto(options, 3, rng), 2048);
  EXPECT_EQ(ArqRto(options, 4, rng), 4096);
  EXPECT_EQ(ArqRto(options, 5, rng), 4096) << "growth must cap at max_rto";
  EXPECT_EQ(ArqRto(options, 30, rng), 4096)
      << "large exponents must not overflow past the cap";
}

TEST(ArqRtoTest, JitterIsBoundedAndDeterministicInTheStream) {
  const ArqOptions options = TestOptions();
  Rng a = ArqJitterRng(options.seed, 7, 3);
  Rng b = ArqJitterRng(options.seed, 7, 3);
  for (int exponent = 0; exponent < 8; ++exponent) {
    const SimDuration first = ArqRto(options, exponent, a);
    const SimDuration second = ArqRto(options, exponent, b);
    EXPECT_EQ(first, second)
        << "same (seed, sender, seq) must give the same retry schedule";
    const SimDuration base =
        std::min(options.base_rto_ms << std::min(exponent, 20),
                 options.max_rto_ms);
    EXPECT_GE(first, base);
    EXPECT_LE(first, base + options.jitter_ms);
  }
}

TEST(ArqJitterRngTest, StreamsAreIndependentPerSenderAndSeq) {
  // Different (sender, seq) pairs must draw different jitter so retry
  // bursts de-synchronize; equal pairs must collide exactly.
  const auto draws = [](NodeId sender, std::uint32_t seq) {
    Rng rng = ArqJitterRng(42, sender, seq);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 4; ++i) out.push_back(rng.UniformInt(0, 1 << 20));
    return out;
  };
  EXPECT_EQ(draws(3, 1), draws(3, 1));
  EXPECT_NE(draws(3, 1), draws(3, 2));
  EXPECT_NE(draws(3, 1), draws(4, 1));
}

// ---------------------------------------------------------------------------
// The engine-free jitter stream.

// SplitMix64, the seed mix `Rng` applies before seeding its engine.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(RngPrefixStreamTest, MatchesMersenneTwisterOnThePrefixAndPastIt) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t seed = i * 0x9e3779b97f4a7c15ULL + 17;
    std::mt19937_64 engine(SplitMix64(seed));
    RngPrefixStream stream(seed);
    for (std::uint64_t k = 0; k < RngPrefixStream::kPrefix; ++k) {
      ASSERT_EQ(stream(), engine()) << "seed " << seed << " output " << k;
    }
    // Past the prefix the stream falls back to a real engine.
    if (i % 50 == 0) {
      for (int k = 0; k < 8; ++k) ASSERT_EQ(stream(), engine());
    }
  }
  // The distribution sees the same bits, so bounded draws agree with
  // `Rng` too, well past the prefix.
  Rng rng(77);
  RngPrefixStream stream(77);
  for (int k = 0; k < 400; ++k) {
    ASSERT_EQ(stream.UniformInt(0, 32), rng.UniformInt(0, 32)) << k;
  }
}

// A network observer that records the start time of every ARQ data frame.
struct DataFrameLog final : NetworkObserver {
  void OnTransmit(SimTime time, const Message& msg, double,
                  bool) override {
    if (const auto* data =
            dynamic_cast<const ArqDataPayload*>(msg.payload.get())) {
      frames.emplace_back(msg.sender, data->seq, time);
    }
  }
  std::vector<std::tuple<NodeId, std::uint32_t, SimTime>> frames;
};

TEST(ArqJitterStreamTest, TransportRtosEqualTheReferenceEngine) {
  // Every send goes to a dead neighbor, so it is transmitted max_attempts
  // times: retransmission j starts RTO(j-1) after the previous one, and the
  // RTOs must be ArqRto over ArqJitterRng for the same (seed, sender, seq).
  const Topology topology = Topology::Grid(3);
  for (const std::uint64_t seed : {1ULL, 99ULL, 0xdeadbeefULL}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 5);
    ArqOptions options = TestOptions();
    options.seed = seed;
    ArqTransport arq(network, options);
    for (NodeId n = 0; n < topology.size(); ++n) {
      arq.Attach(n, [](const Message&, bool) {});
    }
    DataFrameLog log;
    network.observers().Add(&log);
    network.SetDown(1);
    SimTime at = 0;
    for (int round = 0; round < 3; ++round) {
      for (const NodeId sender : {NodeId{0}, NodeId{2}, NodeId{4}}) {
        network.sim().ScheduleAt(at, [&arq, sender] {
          Message msg;
          msg.mode = AddressMode::kUnicast;
          msg.sender = sender;
          msg.destinations = {1};
          msg.payload_bytes = 8;
          msg.payload = std::make_shared<ProbePayload>(0);
          arq.Send(std::move(msg), /*deadline=*/1'000'000);
        });
        at += 20'000;  // each budget is spent long before the next send
      }
    }
    network.sim().RunUntil(at);

    const auto attempts = static_cast<std::size_t>(options.max_attempts);
    ASSERT_EQ(log.frames.size(), 9u * attempts);
    for (std::size_t send = 0; send < 9; ++send) {
      const auto [sender, seq, first] = log.frames[send * attempts];
      Rng reference = ArqJitterRng(seed, sender, seq);
      SimTime expected = first;
      for (std::size_t attempt = 1; attempt < attempts; ++attempt) {
        expected +=
            ArqRto(options, static_cast<int>(attempt) - 1, reference);
        const auto& frame = log.frames[send * attempts + attempt];
        EXPECT_EQ(std::get<0>(frame), sender);
        EXPECT_EQ(std::get<1>(frame), seq);
        EXPECT_EQ(std::get<2>(frame), expected)
            << "seed " << seed << " sender " << sender << " seq " << seq
            << " attempt " << attempt;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The ring dedup window against the ordered-set model it replaced.

struct SetWindowModel {
  bool Admit(std::uint32_t seq) {
    const bool below = max_seen > window && seq < max_seen - window;
    if (below || !seqs.insert(seq).second) return false;
    if (seq > max_seen) {
      max_seen = seq;
      if (max_seen > window) {
        seqs.erase(seqs.begin(), seqs.lower_bound(max_seen - window));
      }
    }
    return true;
  }
  std::uint32_t window = 0;
  std::set<std::uint32_t> seqs;
  std::uint32_t max_seen = 0;
};

TEST(ArqSeenWindowTest, NewMaximumOnAStaleSlotIsFresh) {
  // Window 4 is a ring of 5 slots: seq 5 lands on seq 0's slot.
  ArqSeenWindow window(4);
  EXPECT_TRUE(window.Admit(0));
  EXPECT_TRUE(window.Admit(5)) << "a new maximum is never a duplicate";
  EXPECT_FALSE(window.Admit(5));
  EXPECT_FALSE(window.Admit(0)) << "below the window counts as a duplicate";
  EXPECT_TRUE(window.Admit(3)) << "slot of 3 was cleared when 5 arrived";
}

TEST(ArqSeenWindowTest, MatchesTheSetModelOnRandomSequences) {
  for (const std::uint32_t w : {0u, 1u, 4u, 63u, 64u, 65u, 130u, 1024u}) {
    ArqSeenWindow ring(w);
    SetWindowModel model;
    model.window = w;
    std::mt19937 gen(1234 + w);
    std::uint32_t max_seen = 0;
    for (int step = 0; step < 20'000; ++step) {
      const auto pick = [&](std::uint32_t n) {
        return static_cast<std::uint32_t>(gen() % (n + 1));
      };
      const auto back = [&](std::uint32_t d) {
        return max_seen > d ? max_seen - d : 0;
      };
      std::uint32_t seq = 0;
      switch (gen() % 6) {
        case 0:  // next few, new or just seen
          seq = max_seen + pick(3);
          break;
        case 1:  // inside the window: reordered or duplicated
          seq = back(pick(w));
          break;
        case 2:  // just below the window
          seq = back(w + 1 + pick(4));
          break;
        case 3:  // a gap larger than the whole window
          seq = max_seen + w + 1 + pick(2 * w + 3);
          break;
        case 4:  // around the window edge
          seq = back(w) + pick(3);
          break;
        default:  // anywhere near
          seq = back(2 * w + 2) + pick(4 * w + 6);
          break;
      }
      ASSERT_EQ(ring.Admit(seq), model.Admit(seq))
          << "window " << w << " step " << step << " seq " << seq;
      max_seen = model.max_seen;
    }
  }
}

// ---------------------------------------------------------------------------
// Transport behavior on a small lossless grid.

class ArqTransportTest : public ::testing::Test {
 protected:
  ArqTransportTest()
      : topology_(Topology::Grid(3)),
        network_(topology_, RadioParams{}, ChannelParams{}, 11),
        arq_(network_, TestOptions()),
        delivered_(topology_.size()) {
    for (NodeId n = 0; n < topology_.size(); ++n) {
      arq_.Attach(n, [this, n](const Message& msg, bool addressed) {
        if (addressed) delivered_[n].push_back(msg);
      });
    }
    arq_.SetGiveUpHook([this](const ArqTransport::GiveUpInfo& info) {
      give_ups_.push_back(info);
    });
    arq_.SetQuarantineHook([this](NodeId self, NodeId neighbor,
                                  SimTime until) {
      quarantine_spans_.push_back(until - network_.sim().Now());
      (void)self;
      (void)neighbor;
    });
  }

  Message Probe(NodeId from, std::vector<NodeId> to, int value) {
    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = to.size() == 1 ? AddressMode::kUnicast
                              : AddressMode::kMulticast;
    msg.sender = from;
    msg.destinations = std::move(to);
    msg.payload_bytes = 8;
    msg.payload = std::make_shared<ProbePayload>(value);
    return msg;
  }

  Topology topology_;
  Network network_;
  ArqTransport arq_;
  std::vector<std::vector<Message>> delivered_;
  std::vector<ArqTransport::GiveUpInfo> give_ups_;
  std::vector<SimDuration> quarantine_spans_;
};

TEST_F(ArqTransportTest, LosslessUnicastDeliversOnceWithoutRetries) {
  arq_.Send(Probe(4, {1}, 17), /*deadline=*/1'000'000);
  network_.sim().RunUntil(20'000);

  ASSERT_EQ(delivered_[1].size(), 1u);
  // The receiver sees the reconstructed application message, not the
  // ARQ wrapper.
  const auto* probe =
      dynamic_cast<const ProbePayload*>(delivered_[1][0].payload.get());
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->value, 17);
  EXPECT_EQ(delivered_[1][0].payload_bytes, 8u);

  EXPECT_EQ(arq_.sends(), 1u);
  EXPECT_EQ(arq_.retransmits(), 0u) << "the ack must cancel the timer";
  EXPECT_EQ(arq_.acks_sent(), 1u);
  EXPECT_EQ(arq_.duplicates_dropped(), 0u);
  EXPECT_EQ(arq_.give_ups(), 0u);
  EXPECT_TRUE(give_ups_.empty());
}

TEST_F(ArqTransportTest, MulticastRetransmitsOnlyToTheSilentSubset) {
  network_.SetDown(3);  // silent outage: receives nothing, sends nothing
  arq_.Send(Probe(4, {1, 3}, 5), /*deadline=*/1'000'000);
  network_.sim().RunUntil(60'000);

  // The live destination got exactly one copy despite the retries (they
  // were addressed to node 3 only), the dead one struck out.
  EXPECT_EQ(delivered_[1].size(), 1u);
  EXPECT_TRUE(delivered_[3].empty());
  EXPECT_EQ(arq_.retransmits(), 3u) << "max_attempts=4 means 3 retries";
  EXPECT_EQ(arq_.duplicates_dropped(), 0u)
      << "retries must re-address the silent subset, not every destination";
  ASSERT_EQ(give_ups_.size(), 1u);
  EXPECT_EQ(give_ups_[0].sender, 4);
  EXPECT_EQ(give_ups_[0].unacked, (std::vector<NodeId>{3}));
  const auto* probe =
      dynamic_cast<const ProbePayload*>(give_ups_[0].inner.get());
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->value, 5) << "the hook must hand back the inner payload";
}

TEST_F(ArqTransportTest, DeadlineCutsTheRetryBudgetShort) {
  network_.SetDown(1);
  // The deadline passes before the first timeout fires, so the slot gives
  // up without spending any of its retransmissions.
  arq_.Send(Probe(4, {1}, 9), /*deadline=*/network_.sim().Now() + 100);
  network_.sim().RunUntil(20'000);

  EXPECT_EQ(arq_.give_ups(), 1u);
  EXPECT_EQ(arq_.retransmits(), 0u);
  ASSERT_EQ(give_ups_.size(), 1u);
  EXPECT_EQ(give_ups_[0].unacked, (std::vector<NodeId>{1}));
}

TEST_F(ArqTransportTest, RetrySchedulesAreDeterministicAcrossTransports) {
  // Two transports over identical networks must time out on exactly the
  // same schedule: the jitter is a pure function of (seed, sender, seq).
  Network other(topology_, RadioParams{}, ChannelParams{}, 11);
  ArqTransport arq2(other, TestOptions());
  for (NodeId n = 0; n < topology_.size(); ++n) {
    arq2.Attach(n, [](const Message&, bool) {});
  }
  network_.SetDown(1);
  other.SetDown(1);

  std::vector<SimTime> first, second;
  arq_.SetGiveUpHook([&](const ArqTransport::GiveUpInfo&) {
    first.push_back(network_.sim().Now());
  });
  arq2.SetGiveUpHook([&](const ArqTransport::GiveUpInfo&) {
    second.push_back(other.sim().Now());
  });
  arq_.Send(Probe(4, {1}, 1), 1'000'000);
  arq2.Send(Probe(4, {1}, 1), 1'000'000);
  network_.sim().RunUntil(60'000);
  other.sim().RunUntil(60'000);

  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first, second);
}

TEST_F(ArqTransportTest, QuarantineBackoffDoublesThenHysteresisHalves) {
  const ArqOptions options = TestOptions();
  network_.SetDown(3);

  // Two give-ups (= quarantine_threshold strikes) trigger the first
  // quarantine; sends are spaced far enough apart that each budget is
  // fully spent before the next begins.
  auto strike_out = [&](SimTime at, int value) {
    network_.sim().ScheduleAt(at, [this, value] {
      arq_.Send(Probe(4, {3}, value), /*deadline=*/1'000'000);
    });
  };
  strike_out(0, 1);
  strike_out(8'192, 2);
  // Stop inside the quarantine window (give-up 2 lands around t=12.2s,
  // the quarantine holds for 4096 ms after it).
  network_.sim().RunUntil(14'000);

  ASSERT_EQ(quarantine_spans_.size(), 1u);
  EXPECT_EQ(quarantine_spans_[0], options.quarantine_base_ms);
  EXPECT_TRUE(arq_.IsQuarantined(4, 3));
  EXPECT_FALSE(arq_.IsQuarantined(3, 4)) << "quarantine is directional";

  // A second pair of give-ups doubles the backoff (4096 -> 8192): the
  // neighbor flapped once already, so it is distrusted for longer.
  strike_out(24'576, 3);
  strike_out(32'768, 4);
  network_.sim().RunUntil(45'056);
  ASSERT_EQ(quarantine_spans_.size(), 2u);
  EXPECT_EQ(quarantine_spans_[1], 2 * options.quarantine_base_ms);

  // Recovery: one good ack halves the backoff instead of erasing it.  The
  // next quarantine therefore doubles from 4096 again, not from 8192.
  network_.sim().ScheduleAt(45'056, [this] { network_.Recover(3); });
  strike_out(49'152, 5);
  network_.sim().RunUntil(57'344);
  EXPECT_EQ(delivered_[3].size(), 1u);
  EXPECT_FALSE(arq_.IsQuarantined(4, 3)) << "a good ack lifts quarantine";

  network_.sim().ScheduleAt(57'344, [this] { network_.SetDown(3); });
  strike_out(61'440, 6);
  strike_out(69'632, 7);
  network_.sim().RunUntil(81'920);
  ASSERT_EQ(quarantine_spans_.size(), 3u);
  EXPECT_EQ(quarantine_spans_[2], 2 * options.quarantine_base_ms)
      << "hysteresis: the halved backoff doubles back to 8192, not 16384";

  // Quarantine expires on its own once the backoff elapses.
  network_.sim().RunUntil(200'000);
  EXPECT_FALSE(arq_.IsQuarantined(4, 3));
}

// ---------------------------------------------------------------------------
// Profile parsing.

TEST(ReliabilityProfileTest, NamesRoundTrip) {
  EXPECT_EQ(ParseReliabilityProfile("off"), ReliabilityProfile::kOff);
  EXPECT_EQ(ParseReliabilityProfile("harden"), ReliabilityProfile::kHarden);
  EXPECT_EQ(ParseReliabilityProfile("arq"), ReliabilityProfile::kArq);
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kOff), "off");
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kHarden), "harden");
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kArq), "arq");
  EXPECT_THROW(ParseReliabilityProfile("maximal"), std::invalid_argument);
}

}  // namespace
}  // namespace ttmqo
