// Node placement and radio connectivity.
//
// The paper deploys nodes on an n×n grid with 20 ft spacing and a 50 ft
// radio radius, base station at the upper-left corner as node 0 (Section
// 4.1).  `Topology` stores positions and the derived symmetric neighbor
// relation; hop levels (minimum hop count from the base station) are
// computed by BFS.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace ttmqo {

/// Interference reaches beyond communication: a transmission can corrupt
/// receptions up to twice the radio range away (the classic two-disc
/// model the channel's contention accounting uses).
inline constexpr double kInterferenceRangeFactor = 2.0;

/// An immutable deployment: positions plus radio connectivity.
class Topology {
 public:
  /// Builds a topology from explicit positions.  `positions[i]` is node i's
  /// location; node 0 is the base station.  Two distinct nodes are
  /// neighbors iff their distance is at most `range_feet`.  Throws if any
  /// node is unreachable from the base station.
  Topology(std::vector<Position> positions, double range_feet);

  /// The paper's grid: `side`×`side` nodes, `spacing_feet` apart, node 0 at
  /// the upper-left corner.
  static Topology Grid(std::size_t side, double spacing_feet = 20.0,
                       double range_feet = 50.0);

  /// Uniform-random deployment in a square of the given side, with the base
  /// station at the corner.  Retries until connected (deterministic in
  /// seed).
  static Topology RandomUniform(std::size_t num_nodes, double side_feet,
                                double range_feet, std::uint64_t seed);

  /// Number of nodes (including the base station).
  std::size_t size() const { return positions_.size(); }

  /// Position of a node.
  const Position& PositionOf(NodeId node) const;

  /// Radio range in feet.
  double range_feet() const { return range_feet_; }

  /// Neighbors of `node` (symmetric, excludes the node itself), ascending.
  const std::vector<NodeId>& NeighborsOf(NodeId node) const;

  /// True iff `a` and `b` are within radio range (and distinct).
  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Position of `neighbor` in `NeighborsOf(node)`: a dense index for
  /// per-neighbor state.  `neighbor` must be a neighbor of `node`.  Inline:
  /// the engines call it for every received frame.
  std::size_t NeighborIndex(NodeId node, NodeId neighbor) const {
    CheckArg(node < neighbors_.size(), "Topology: node id out of range");
    const std::vector<NodeId>& list = neighbors_[node];
    const auto it = std::lower_bound(list.begin(), list.end(), neighbor);
    Check(it != list.end() && *it == neighbor,
          "Topology::NeighborIndex: not a radio neighbor");
    return static_cast<std::size_t>(it - list.begin());
  }

  /// Nodes within `kInterferenceRangeFactor * range_feet` of `node`
  /// (excluding the node itself), ascending.  Precomputed once and stored
  /// in CSR form, so the channel never re-derives interference geometry.
  std::span<const NodeId> InterferersOf(NodeId node) const;

  /// True iff `a`'s transmissions can interfere with `b`'s (distinct nodes
  /// within the interference range).  O(1) bitset membership test with no
  /// bounds checks — callers pass validated node ids.
  bool InInterferenceRange(NodeId a, NodeId b) const {
    return (interference_bits_[static_cast<std::size_t>(a) * bits_stride_ +
                               (static_cast<std::size_t>(b) >> 6)] >>
            (static_cast<std::size_t>(b) & 63)) &
           1u;
  }

  /// Minimum hop count from the base station (level 0) per node.
  const std::vector<std::size_t>& HopLevels() const { return levels_; }

  /// The largest hop level in the deployment (`max_depth` of Eq. 2).
  std::size_t MaxDepth() const { return max_depth_; }

  /// Number of nodes at each hop level; index = level.  `|N_k|` of Eq. 1.
  const std::vector<std::size_t>& NodesPerLevel() const {
    return nodes_per_level_;
  }

  /// All node ids, 0..size-1.
  std::vector<NodeId> AllNodes() const;

 private:
  std::vector<Position> positions_;
  double range_feet_;
  std::vector<std::vector<NodeId>> neighbors_;
  /// Interference adjacency, flattened to CSR (offsets + flat id list)
  /// plus a row-per-node bitset for O(1) membership tests.
  std::vector<std::uint32_t> interference_offsets_;
  std::vector<NodeId> interference_flat_;
  std::vector<std::uint64_t> interference_bits_;
  std::size_t bits_stride_ = 0;
  std::vector<std::size_t> levels_;
  std::vector<std::size_t> nodes_per_level_;
  std::size_t max_depth_ = 0;
};

}  // namespace ttmqo
