// Radio messages.
//
// The paper's metric counts four message classes separately: query result
// transmissions, query propagation/abort messages, periodic network
// maintenance messages, and retransmissions due to failures (Section 4.1).
// A `Message` carries a typed payload (owned polymorphically) plus the
// serialized payload size used for transmission-time accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "util/ids.h"

namespace ttmqo {

/// Accounting class of a radio message.
enum class MessageClass : std::uint8_t {
  kResult = 0,           ///< query result / partial aggregate transmissions
  kQueryPropagation = 1, ///< query dissemination flood
  kQueryAbort = 2,       ///< query termination flood
  kMaintenance = 3,      ///< periodic neighbor/beacon traffic
  kControl = 4,          ///< reliability control: acks, gap-repair requests
};

/// Number of message classes.
inline constexpr std::size_t kNumMessageClasses = 5;

/// Display name of a message class.
std::string_view MessageClassName(MessageClass cls);

/// Base class of typed message payloads; engines define concrete payloads
/// and downcast on receipt.
class Payload {
 public:
  virtual ~Payload() = default;
};

/// `dynamic_cast<const T*>(payload)` for a final payload type, as one
/// type_info comparison instead of a hierarchy walk: receive handlers try
/// several payload types on every delivered frame.
template <typename T>
const T* PayloadAs(const Payload* payload) {
  static_assert(std::is_final_v<T>, "PayloadAs needs a final payload type");
  return payload != nullptr && typeid(*payload) == typeid(T)
             ? static_cast<const T*>(payload)
             : nullptr;
}

/// How a transmission addresses its receivers.
enum class AddressMode : std::uint8_t {
  kBroadcast, ///< every neighbor in radio range processes the message
  kUnicast,   ///< exactly one addressed neighbor
  kMulticast, ///< several addressed neighbors, one transmission
};

/// One radio transmission.
struct Message {
  MessageClass cls = MessageClass::kResult;
  AddressMode mode = AddressMode::kBroadcast;
  NodeId sender = kBaseStationId;
  /// Addressed receivers; empty for broadcast.
  std::vector<NodeId> destinations;
  /// Serialized payload size in bytes (excluding the fixed radio header).
  std::size_t payload_bytes = 0;
  /// Typed contents; shared because multicast delivers one payload to many.
  std::shared_ptr<const Payload> payload;
};

}  // namespace ttmqo
