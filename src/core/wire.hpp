// Wire protocol for the Dodo control and data planes.
//
// Every control message is an envelope {u8 kind, u64 rid, u64 trace_id,
// u64 parent_span} followed by kind-specific fields. Replies echo the rid of
// their request. The trace pair is the Dapper-style causal context: the
// recipient opens its handler span as a child of `parent_span` within
// `trace_id`, so cross-process request trees reconstruct offline (both zero
// when the sender records no spans). Bulk region payloads never travel in
// these messages; they move through the §4.4 bulk protocol on per-transfer
// ephemeral sockets whose endpoints the control messages carry.
//
// All imd->cmd replies piggyback the daemon's epoch and largest free block,
// which is how the central manager's idle-workstation directory stays fresh
// (paper §4.3: "this information is piggybacked on all communication
// between the individual imds and the cmd").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "net/address.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "obs/span.hpp"

namespace dodo::core {

// Well-known ports.
inline constexpr net::Port kCmdPort = 700;      // central manager daemon
inline constexpr net::Port kImdCtlPort = 701;   // imd: alloc/free from cmd
inline constexpr net::Port kImdDataPort = 702;  // imd: read/write from apps
inline constexpr net::Port kRmdPort = 703;      // rmd: stats scrape endpoint
inline constexpr net::Port kClientPort = 710;   // runtime lib: keep-alive

enum class MsgKind : std::uint8_t {
  // rmd -> cmd
  kHostStatus = 1,  // node became idle/busy
  // imd -> cmd
  kImdRegister = 2,  // pool size + epoch on startup
  // rmd -> cmd (lease harvesting, §14): graded local-pressure signal.
  // Body: u32 node, u8 PressureLevel. Sent only on level changes and only
  // with lease_epochs on; the binary kHostStatus keeps flowing unchanged.
  kPressureStatus = 3,
  // imd -> cmd (lease harvesting, §14): regions entering their lease grace
  // window — scheduled for reclamation unless renewed. The cmd reacts by
  // proactively re-replicating sole copies before the fence falls. One-way
  // datagram (best effort: renewal rejects are the backstop). Body: u32
  // node, u64 epoch, u32 n, then n x {u64 region id, i64 len}.
  kLeaseExpiryNotice = 4,
  // cmd -> imd and replies
  kAllocReq = 10,  // body: i64 len, u64 expected epoch (mismatch = reject)
  kAllocRep = 11,
  kFreeReq = 12,
  kFreeRep = 13,
  // Scrub for a suspect alloc: an alloc RPC the cmd gave up on may have
  // executed with every reply lost. Body: u64 rid of that alloc. The imd
  // frees the region it allocated for that rid (if any) and poisons the rid
  // so an even later retransmit cannot re-execute.
  kAllocCancel = 14,
  kAllocCancelRep = 15,
  // Replica grow: the cmd tells an imd to fill a freshly allocated region
  // with the bytes of a live sibling replica. The imd acts as a data-plane
  // reader against the source host (kReadReq + bulk), then adopts the
  // source's written prefix so the copy is never more trustworthy than the
  // original. Body: u64 dst region id, RegionLoc of the source replica.
  kCloneReq = 16,
  kCloneRep = 17,
  // Lease renewal batch (lease harvesting, §14): on every keep-alive tick
  // the cmd renews the leases of the regions its directory maps on an idle
  // host. Request body: u64 expected epoch, u32 n, n x u64 region ids.
  // Reply body: u8 ok (epoch matched), u64 epoch, i64 largest free, u32
  // n_rejected, n_rejected x u64 region ids — a rejected id is fenced or
  // unknown on the imd, so the cmd prunes that copy instead of retrying.
  kLeaseRenewReq = 18,
  kLeaseRenewRep = 19,
  // client -> cmd and replies
  kMopenReq = 20,
  kMopenRep = 21,
  kCheckAllocReq = 22,
  kCheckAllocRep = 23,
  kMfreeReq = 24,
  kMfreeRep = 25,
  kDetach = 26,  // client exits but leaves its regions cached (dmine mode)
  // Invalidate-on-write: a client that could not write one replica of a
  // fragment reports it so the directory drops that copy — a replica that
  // misses an invalidation must never be served again (clean-cache
  // contract). Body: RegionKey + the stale RegionLoc.
  kDropReplicaReq = 27,
  kDropReplicaRep = 28,
  // cmd <-> client keep-alive. kPing piggybacks replica-set deltas for the
  // client's live descriptors (u32 n, then n x {u8 ReplicaUpdateOp,
  // RegionKey, u32 fragment index, RegionLoc}); kPong piggybacks the acks
  // for applied add-write-only deltas (u32 n, n x {RegionKey, u32 fragment
  // index, RegionLoc}) followed by per-region read-hit deltas (u32 n, n x
  // {RegionKey, u64 hits}) that drive Ditto-style replica adaptation.
  kPing = 30,
  kPong = 31,
  // client -> imd data plane and replies
  kReadReq = 40,
  kReadRep = 41,
  kWriteReq = 42,
  kWriteGo = 44,  // imd tells the client where to bulk-send the write data
  kWriteRep = 43,
  // observability scrape: request carries no body; the reply body is the
  // responder's metrics snapshot serialized as JSON text (obs::MetricsSnapshot
  // round-trips it). The cmd answers with its own snapshot; an rmd answers
  // with its snapshot merged with its imd's (when recruited); an imd answers
  // with just its own.
  kStatsReq = 50,
  kStatsRep = 51,
  // never on the wire: injected locally to wake a daemon loop for shutdown
  kShutdownSentinel = 255,
};

/// Graded local-pressure signal from the resource monitor (lease
/// harvesting, DESIGN.md §14). kIdle: harvest freely. kRising: the owner's
/// working set is growing — the imd pool shrinks incrementally, coldest
/// regions first, and the cmd avoids placing new copies on the host.
/// kUrgent: the owner is back at the console — the paper's binary path
/// (whole-daemon eviction) fires unchanged.
enum class PressureLevel : std::uint8_t {
  kIdle = 0,
  kRising = 1,
  kUrgent = 2,
};

/// Replica-set delta piggybacked on the keep-alive exchange. A grown copy
/// arrives write-only first (the client fans writes out to it but never
/// reads it), activates once the cmd proves it missed no write, and drops
/// when invalidated or shrunk.
enum class ReplicaUpdateOp : std::uint8_t {
  kAddWriteOnly = 0,
  kActivate = 1,
  kDrop = 2,
};

/// Region key in the central manager's region directory: (inode of backing
/// file, offset within it), plus a client id for the multi-client extension
/// (0 in the paper's single-client configuration; see §4.3 footnote).
struct RegionKey {
  std::uint32_t inode = 0;
  std::int64_t offset = 0;
  std::uint32_t client = 0;

  friend bool operator==(const RegionKey&, const RegionKey&) = default;
};

struct RegionKeyHash {
  std::size_t operator()(const RegionKey& k) const {
    std::uint64_t h = k.inode * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(k.offset) + (h << 6) + (h >> 2);
    h ^= k.client * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h);
  }
};

/// Directory shard a region key belongs to when the control plane runs
/// `shard_count` central managers. Pure function of the key, so every
/// client routes identically with no cross-shard lookup on the hot path.
/// The table hash above feeds a fmix64-style avalanche so consecutive file
/// offsets spread across shards instead of striding. shard_count <= 1
/// always maps to shard 0 (the paper's single-cmd layout).
inline std::uint32_t shard_of_key(const RegionKey& k,
                                  std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  std::uint64_t h = RegionKeyHash{}(k);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h % shard_count);
}

/// Where a region lives: host + the epoch it was allocated under + the
/// region id within that imd's pool.
struct RegionLoc {
  net::NodeId host = 0;
  std::uint64_t epoch = 0;
  std::uint64_t imd_region = 0;
  Bytes64 len = 0;
};

/// All copies of one fragment. replicas[0] is the primary (the copy the
/// placement loop sat down first); every replica holds the same byte range
/// on a distinct host. A fragment with an empty set no longer exists
/// remotely. All replicas share the same length.
struct ReplicaSet {
  std::vector<RegionLoc> replicas;

  [[nodiscard]] Bytes64 len() const {
    return replicas.empty() ? 0 : replicas.front().len;
  }
  [[nodiscard]] const RegionLoc& primary() const { return replicas.front(); }
  [[nodiscard]] std::size_t size() const { return replicas.size(); }
  [[nodiscard]] bool empty() const { return replicas.empty(); }
};

/// A region striped across one or more imds, each fragment carried by a
/// ReplicaSet of one or more copies. Fragment i covers bytes
/// [i*frag_len, i*frag_len + frags[i].len()) of the region; every fragment
/// is exactly frag_len bytes except possibly the last. Width 1 with a
/// single replica (the paper's layout) is one fragment holding the whole
/// region on one host.
struct StripeMap {
  Bytes64 len = 0;       // total region length
  Bytes64 frag_len = 0;  // stride between fragment starts
  std::vector<ReplicaSet> frags;

  [[nodiscard]] Bytes64 frag_base(std::size_t i) const {
    return static_cast<Bytes64>(i) * frag_len;
  }
};

// ---------------------------------------------------------------------------
// Envelope helpers
// ---------------------------------------------------------------------------

struct Envelope {
  MsgKind kind{};
  std::uint64_t rid = 0;
  obs::TraceContext trace;  // {0,0} when the sender records no spans
};

inline net::Buf make_header(MsgKind kind, std::uint64_t rid,
                            obs::TraceContext ctx = {}) {
  net::Buf h;
  h.reserve(net::kHeaderReserve);
  net::Writer w(h);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(rid);
  w.u64(ctx.trace_id);
  w.u64(ctx.parent_span);
  return h;
}

inline std::optional<Envelope> peek_envelope(const net::Message& m) {
  net::Reader r(m.header);
  Envelope e;
  e.kind = static_cast<MsgKind>(r.u8());
  e.rid = r.u64();
  e.trace.trace_id = r.u64();
  e.trace.parent_span = r.u64();
  if (!r.ok()) return std::nullopt;
  return e;
}

/// Reader positioned after the envelope.
inline net::Reader body_reader(const net::Message& m) {
  net::Reader r(m.header);
  (void)r.u8();
  (void)r.u64();  // rid
  (void)r.u64();  // trace_id
  (void)r.u64();  // parent_span
  return r;
}

inline void put_key(net::Writer& w, const RegionKey& k) {
  w.u32(k.inode);
  w.i64(k.offset);
  w.u32(k.client);
}

inline RegionKey get_key(net::Reader& r) {
  RegionKey k;
  k.inode = r.u32();
  k.offset = r.i64();
  k.client = r.u32();
  return k;
}

inline void put_loc(net::Writer& w, const RegionLoc& loc) {
  w.u32(loc.host);
  w.u64(loc.epoch);
  w.u64(loc.imd_region);
  w.i64(loc.len);
}

inline RegionLoc get_loc(net::Reader& r) {
  RegionLoc loc;
  loc.host = r.u32();
  loc.epoch = r.u64();
  loc.imd_region = r.u64();
  loc.len = r.i64();
  return loc;
}

inline void put_stripes(net::Writer& w, const StripeMap& map) {
  w.i64(map.len);
  w.i64(map.frag_len);
  w.u32(static_cast<std::uint32_t>(map.frags.size()));
  for (const ReplicaSet& f : map.frags) {
    w.u32(static_cast<std::uint32_t>(f.replicas.size()));
    for (const RegionLoc& rep : f.replicas) put_loc(w, rep);
  }
}

inline StripeMap get_stripes(net::Reader& r) {
  StripeMap map;
  map.len = r.i64();
  map.frag_len = r.i64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    ReplicaSet set;
    const std::uint32_t nreps = r.u32();
    for (std::uint32_t j = 0; j < nreps && r.ok(); ++j) {
      set.replicas.push_back(get_loc(r));
    }
    map.frags.push_back(std::move(set));
  }
  return map;
}

inline void put_endpoint(net::Writer& w, const net::Endpoint& e) {
  w.u32(e.node);
  w.u32(e.port);
}

inline net::Endpoint get_endpoint(net::Reader& r) {
  net::Endpoint e;
  e.node = r.u32();
  e.port = r.u32();
  return e;
}

}  // namespace dodo::core
