// Oracle snapshot persistence: the build-once half of build-once/serve-many.
//
// The paper motivates APSP by its "close connection to network routing"
// (Section 1); related work (Bui et al. 2024, Censor-Hillel et al. 2019)
// underlines that construction is the expensive one-time phase, after
// which distance and path queries should be cheap lookups.  This layer
// makes the expensive phase durable: everything a serving process needs
// — graph metadata, the distance estimate, the claimed stretch, the
// round-ledger summary, and (optionally) next-hop routing tables — is
// serialized into one versioned, checksummed binary artifact.
//
// Envelope (all integers little-endian, fixed width):
//
//   magic    8 bytes  "CCQSNAP\n"
//   version  u32      SnapshotFormat (1, 2 or 3)
//   length   u64      payload byte count (truncation detection)
//   payload  ...      format-dependent (see below)
//   checksum u64      FNV-1a 64 of the payload (corruption detection)
//
// Version 1 stores every estimate cell as a fixed 8-byte integer and
// every next hop as 4 bytes.  Version 2 ("codec v2") stores each row
// delta-encoded as zigzag varints behind a row-offset table, which both
// shrinks the file (neighboring estimates are close; unreachable runs
// collapse to one byte per cell) and enables lazy per-row decoding.
// Version 3 ("codec v3") stores no distance matrix at all: only a
// spanner edge list in CSR form (delta-varint targets + varint weights),
// O(k n^{1+1/k}) cells instead of n^2 — distances are reconstructed at
// query time by SpannerDistanceSource (serve/distance_source.hpp).
//
// Dense readers accept versions 1 and 2 and reject everything else
// (including v3, with a pointer at the sparse loader) with
// snapshot_io_error naming the found version; a successful load
// round-trips bitwise.  MappedSnapshot serves version 1 or 2 straight
// from an mmap'd file: integrity is verified once at open, and v2 rows
// are decoded on first touch (decode-once, thread-safe).
#ifndef CCQ_SERVE_SNAPSHOT_HPP
#define CCQ_SERVE_SNAPSHOT_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccq/core/apsp_result.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/graph/graph.hpp"
#include "ccq/matrix/dense.hpp"
#include "ccq/spanner/baswana_sen.hpp"

namespace ccq {

/// Thrown on malformed, truncated, corrupted, or wrong-version input.
class snapshot_io_error : public std::runtime_error {
public:
    explicit snapshot_io_error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

/// On-disk encodings; the envelope version field is the format.  Every
/// writer, reader, and tool names formats through this enum — the
/// integer only appears on the wire.
enum class SnapshotFormat : std::uint32_t {
    v1_raw = 1,        ///< dense, fixed-width cells
    v2_compressed = 2, ///< dense, per-row delta+varint behind offset tables
    v3_spanner = 3,    ///< sparse: spanner edge list only (CSR, delta+varint)
};

/// Highest format version any reader in this build understands.
inline constexpr std::uint32_t kSnapshotFormatVersion =
    static_cast<std::uint32_t>(SnapshotFormat::v3_spanner);

/// The wire value of a format.
[[nodiscard]] constexpr std::uint32_t format_version(SnapshotFormat format) noexcept
{
    return static_cast<std::uint32_t>(format);
}

/// "v1-raw" / "v2-compressed" / "v3-spanner" (for logs, bench JSON, CLI).
[[nodiscard]] const char* snapshot_format_name(SnapshotFormat format) noexcept;

/// Reads just the envelope header of a snapshot file and returns its
/// format, so callers (ccq_served, ccq_serve, bench) can pick the dense
/// or sparse load path before committing to either.  Throws
/// snapshot_io_error on missing files, bad magic, or a version this
/// build does not understand (naming the found version).
[[nodiscard]] SnapshotFormat peek_snapshot_format(const std::string& path);

/// Everything about the build that is not the bulk payload.
struct SnapshotMeta {
    int node_count = 0;
    std::uint64_t edge_count = 0;   ///< of the source graph
    bool directed = false;
    Weight max_weight = 0;          ///< largest edge weight of the source graph
    std::string algorithm;          ///< ApspResult::algorithm
    double claimed_stretch = 1.0;   ///< ApspResult::claimed_stretch
    double total_rounds = 0.0;      ///< ledger summary
    std::uint64_t total_words = 0;  ///< ledger summary
    std::uint64_t build_seed = 0;   ///< ApspOptions::seed used at build time

    friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

/// A persisted distance oracle: metadata, the estimate matrix, and
/// optionally next-hop routing tables for path reconstruction.
///
/// The n^2 cells are held through shared handles, so copying a snapshot
/// is O(1) and copies share cells.  Snapshots from read_snapshot,
/// load_snapshot and MappedSnapshot::materialize own their cells;
/// from_result borrows the build's (see there).  The cells are const:
/// a snapshot is immutable once assembled.
struct OracleSnapshot {
    SnapshotMeta meta;
    std::shared_ptr<const DistanceMatrix> estimate;
    std::shared_ptr<const RoutingTables> routing; ///< null: no routing tables

    /// Assembles a snapshot from a finished build without copying it:
    /// the snapshot refers to `result.estimate` and `*routing` in place,
    /// like a std::span over them.  Both must outlive the snapshot and
    /// every copy of it (including sources and engines built from it).
    /// `routing`, when non-null, must have the same node count as the
    /// estimate.
    [[nodiscard]] static OracleSnapshot from_result(const Graph& source, const ApspResult& result,
                                                    std::uint64_t build_seed,
                                                    const RoutingTables* routing = nullptr);
};

/// Writes a dense (v1 or v2) snapshot.  Rows are encoded in parallel
/// batches over `engine.threads`; while one batch is hashed and
/// streamed in row order, the next is encoded, so the checksum overlaps
/// the encoding.  The bytes are identical for every thread count.
void write_snapshot(std::ostream& out, const OracleSnapshot& snapshot,
                    SnapshotFormat format = SnapshotFormat::v1_raw,
                    const EngineConfig& engine = {});
[[nodiscard]] OracleSnapshot read_snapshot(std::istream& in);

/// The byte length write_snapshot would produce, from the writer's
/// sizing pass alone: no cell is encoded and nothing is buffered.
[[nodiscard]] std::uint64_t encoded_snapshot_bytes(const OracleSnapshot& snapshot,
                                                   SnapshotFormat format,
                                                   const EngineConfig& engine = {});

void save_snapshot(const std::string& path, const OracleSnapshot& snapshot,
                   SnapshotFormat format = SnapshotFormat::v1_raw,
                   const EngineConfig& engine = {});
[[nodiscard]] OracleSnapshot load_snapshot(const std::string& path);

/// A persisted sparse oracle (format v3): the spanner edge list plus the
/// source graph's metadata and the stretch contract.  The n^2 estimate
/// is never stored; SpannerDistanceSource reconstructs rows on demand.
///
/// v3 payload layout (after the shared meta block):
///
///   stretch_bound  u32          guaranteed multiplicative stretch (2k-1)
///   parameter_k    u32          the k used by the construction
///   construction   string       "baswana-sen" / "greedy" / ...
///   edge_count     u64          m, undirected spanner edges
///   offsets        (n+1) x u64  CSR row u holds edges {u,v} with v > u
///   blob           offsets[n] bytes of concatenated rows; each edge is
///                  varint(target delta, strictly positive) + varint(weight)
///
/// Storing each undirected edge once under its smaller endpoint with
/// strictly increasing targets makes every delta >= 1, so a valid blob
/// spends at least 2 bytes per edge — the pre-allocation bound the
/// reader proves before trusting the claimed edge count.
struct SparseSnapshot {
    SnapshotMeta meta;        ///< describes the SOURCE graph, not the spanner
    int stretch_bound = 1;
    int parameter_k = 1;
    std::string construction; ///< spanner algorithm name
    std::vector<WeightedEdge> edges; ///< u <= v, sorted, deduplicated

    /// Assembles a sparse snapshot from a spanner of `source`.
    [[nodiscard]] static SparseSnapshot from_spanner(const Graph& source,
                                                     const SpannerResult& result,
                                                     std::string construction,
                                                     std::uint64_t build_seed);

    /// The spanner as an adjacency-list graph (undirected).
    [[nodiscard]] Graph spanner_graph() const;

    friend bool operator==(const SparseSnapshot&, const SparseSnapshot&) = default;
};

void write_sparse_snapshot(std::ostream& out, const SparseSnapshot& snapshot);
[[nodiscard]] SparseSnapshot read_sparse_snapshot(std::istream& in);

void save_sparse_snapshot(const std::string& path, const SparseSnapshot& snapshot);
[[nodiscard]] SparseSnapshot load_sparse_snapshot(const std::string& path);

/// An oracle served directly from an mmap'd snapshot file.
///
/// Opening verifies the full envelope (magic, version, length, FNV-1a
/// checksum) and validates the row-offset tables, but does not
/// materialize the n^2 estimate: version-1 cells are read in place, and
/// version-2 rows are decoded on first touch into a per-row cache
/// (std::call_once, so concurrent readers are safe and each row is
/// decoded exactly once).  All accessors are const and thread-safe.
/// Dense formats only; a v3 file loads via load_sparse_snapshot /
/// open_distance_source instead.
class MappedSnapshot {
public:
    explicit MappedSnapshot(const std::string& path);
    ~MappedSnapshot();
    MappedSnapshot(const MappedSnapshot&) = delete;
    MappedSnapshot& operator=(const MappedSnapshot&) = delete;

    [[nodiscard]] const SnapshotMeta& meta() const noexcept { return meta_; }
    [[nodiscard]] int node_count() const noexcept { return meta_.node_count; }
    [[nodiscard]] bool has_routing() const noexcept { return has_routing_; }
    [[nodiscard]] std::uint32_t format_version() const noexcept { return version_; }
    [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }

    /// Distance estimate for (from, to); kInfinity when unreachable.
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const;

    /// Next hop of `from` toward `to` (-1 when none); requires routing.
    [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const;

    /// Hop-budgeted next-hop walk with the same hardening as
    /// RoutingTables::route: cycles, out-of-range hops, and walks longer
    /// than n hops report unreachable (empty) instead of looping.
    [[nodiscard]] std::vector<NodeId> route(NodeId from, NodeId to) const;

    /// Full eager decode into an in-memory snapshot (for tests and for
    /// re-encoding under a different format).
    [[nodiscard]] OracleSnapshot materialize() const;

private:
    struct WeightRowSlot {
        std::once_flag once;
        std::vector<Weight> cells;
    };
    struct HopRowSlot {
        std::once_flag once;
        std::vector<NodeId> hops;
    };

    [[nodiscard]] const std::vector<Weight>& estimate_row(NodeId u) const;
    [[nodiscard]] const std::vector<NodeId>& hop_row(NodeId u) const;
    void check_node(NodeId v, const char* what) const;

    // The mapped file; payload_ points into it.
    void* map_ = nullptr;
    std::size_t map_size_ = 0;
    std::uint64_t file_bytes_ = 0;
    const char* payload_ = nullptr;
    std::size_t payload_size_ = 0;
    std::uint32_t version_ = 0;

    SnapshotMeta meta_;
    bool has_routing_ = false;

    // v1: byte offsets of the fixed-width cell blocks inside the payload.
    std::size_t v1_estimate_offset_ = 0;
    std::size_t v1_routing_offset_ = 0;

    // v2: row-offset tables (validated at open) and decode-once caches.
    std::vector<std::size_t> est_row_offsets_; ///< n+1 offsets into est blob
    std::size_t est_blob_offset_ = 0;
    std::vector<std::size_t> hop_row_offsets_;
    std::size_t hop_blob_offset_ = 0;
    mutable std::unique_ptr<WeightRowSlot[]> est_rows_;
    mutable std::unique_ptr<HopRowSlot[]> hop_rows_;
};

} // namespace ccq

#endif // CCQ_SERVE_SNAPSHOT_HPP
