// Node addressing for the simulated cluster network.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace dodo::net {

/// Identifies a workstation in the cluster (the simulator's stand-in for an
/// IP address).
using NodeId = std::uint32_t;

/// A communication endpoint within a node. Well-known ports are listed in
/// core/wire.hpp; ephemeral ports are handed out by the network. 32 bits
/// (wider than real UDP) because the simulator burns one ephemeral port per
/// bulk exchange and paper-scale runs make hundreds of thousands of them.
using Port = std::uint32_t;

struct Endpoint {
  NodeId node = 0;
  Port port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

inline std::string to_string(const Endpoint& e) {
  std::string s = "n";
  s += std::to_string(e.node);
  s += ':';
  s += std::to_string(e.port);
  return s;
}

struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(e.node) << 32) | e.port);
  }
};

}  // namespace dodo::net
