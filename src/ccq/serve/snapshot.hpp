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
//   version  u32      SnapshotFormat (2 or 3; 1 is retired)
//   length   u64      payload byte count (truncation detection)
//   payload  ...      format-dependent (see below)
//   checksum u64      FNV-1a 64 of the payload (corruption detection)
//
// Version 2 ("codec v2", the one dense codec) stores each row
// delta-encoded as zigzag varints behind a row-offset table, which both
// shrinks the file (neighboring estimates are close; unreachable runs
// collapse to one byte per cell) and enables lazy per-row decoding.
// Version 3 ("codec v3") stores no distance matrix at all: only a
// spanner edge list in CSR form (delta-varint targets + varint weights),
// O(k n^{1+1/k}) cells instead of n^2 — distances are reconstructed at
// query time by SpannerDistanceSource (serve/distance_source.hpp).
// Version 1 (fixed-width dense cells) is retired and stays reserved:
// every reader rejects it, naming the version and asking for a rebuild.
//
// One reader serves every format.  A snapshot file must be a regular
// file, and it is read from one read-only mmap of the whole file: the
// envelope (magic, version, length, FNV-1a checksum) is checked once at
// open, v2 files are parsed once into row locators, and one row decoder
// range-checks cells on their way out.  Dense readers (MappedSnapshot,
// load_snapshot) accept version 2 and the sparse one
// (load_sparse_snapshot) version 3; each rejects the other kind with a
// pointer at the right loader, and an unknown version with
// snapshot_io_error naming the version found.  A successful load
// round-trips bitwise.  There is no stream reader: bytes are read from
// files.
//
// Writers replace a file by rename: they write a uniquely named sibling
// and rename it over the target, so a process that still maps the old
// file keeps reading the old bytes instead of dying of SIGBUS on a
// truncated mapping.
#ifndef CCQ_SERVE_SNAPSHOT_HPP
#define CCQ_SERVE_SNAPSHOT_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
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
/// integer only appears on the wire.  Version 1 (the retired
/// fixed-width dense codec) is reserved: no format takes it again.
enum class SnapshotFormat : std::uint32_t {
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

/// "v2-compressed" / "v3-spanner" (for logs, bench JSON, CLI).
[[nodiscard]] const char* snapshot_format_name(SnapshotFormat format) noexcept;

/// Reads just the envelope header of a snapshot file and returns its
/// format, so callers (ccq_served, ccq_serve, bench) can pick the dense
/// or sparse load path before committing to either.  Throws
/// snapshot_io_error on missing files, bad magic, the retired version
/// 1, or a version this build does not understand (naming the found
/// version).
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
/// is O(1) and copies share cells.  Snapshots from load_snapshot and
/// MappedSnapshot::materialize own their cells;
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

/// Writes a dense snapshot.  `format` must be v2, the one dense codec
/// (anything else is a check_error).  Rows are encoded in parallel
/// batches over `engine.threads`; while one batch is hashed and
/// streamed in row order, the next is encoded, so the checksum overlaps
/// the encoding.  The bytes are identical for every thread count.
void write_snapshot(std::ostream& out, const OracleSnapshot& snapshot,
                    SnapshotFormat format = SnapshotFormat::v2_compressed,
                    const EngineConfig& engine = {});

/// Writes `path` by rename (see the top of this file): a failed save
/// leaves the old file in place and no temporary behind.  An existing
/// `path` must be a regular file.
void save_snapshot(const std::string& path, const OracleSnapshot& snapshot,
                   SnapshotFormat format = SnapshotFormat::v2_compressed,
                   const EngineConfig& engine = {});

/// MappedSnapshot(path).materialize(): the mapping is unmapped on return.
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

/// Writes `path` by rename, like save_snapshot.
void save_sparse_snapshot(const std::string& path, const SparseSnapshot& snapshot);

/// Maps the file, checks its envelope and decodes the v3 payload in
/// place; the mapping is unmapped on return.
[[nodiscard]] SparseSnapshot load_sparse_snapshot(const std::string& path);

/// An oracle served directly from an mmap'd snapshot file.
///
/// Opening verifies the full envelope (magic, version, length, FNV-1a
/// checksum) and parses the layout into row locators, but does not
/// materialize the n^2 estimate: rows are decoded (and checked) on
/// first touch into a per-row cache (std::call_once, so concurrent
/// readers are safe and each row is decoded exactly once).  All
/// accessors are const and thread-safe.  Dense (v2) files only; a v3
/// file loads via load_sparse_snapshot / open_distance_source instead.
class MappedSnapshot {
public:
    explicit MappedSnapshot(const std::string& path);
    MappedSnapshot(const MappedSnapshot&) = delete;
    MappedSnapshot& operator=(const MappedSnapshot&) = delete;

    [[nodiscard]] const SnapshotMeta& meta() const noexcept { return meta_; }
    [[nodiscard]] int node_count() const noexcept { return meta_.node_count; }
    [[nodiscard]] bool has_routing() const noexcept { return !hop_rows_.empty(); }
    [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }

    /// Distance estimate for (from, to); kInfinity when unreachable.
    [[nodiscard]] Weight distance(NodeId from, NodeId to) const;

    /// The estimate row of `from` (n cells), decoded on first touch and
    /// kept for the snapshot's lifetime.
    [[nodiscard]] std::span<const Weight> row(NodeId from) const;

    /// Next hop of `from` toward `to` (-1 when none); requires routing.
    [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const;

    /// The hop-budgeted walk of RoutingTables::route (walk_next_hops):
    /// cycles, out-of-range hops, and walks longer than n hops report
    /// unreachable (empty) instead of looping.
    [[nodiscard]] std::vector<NodeId> route(NodeId from, NodeId to) const;

    /// Full eager decode into an in-memory snapshot, straight into the
    /// owned cells (the row cache is neither read nor filled).  Mapped
    /// pages are released from the resident set behind the decode, so
    /// the call holds about one copy of the cells; later reads through
    /// the mapping fault them back in.
    [[nodiscard]] OracleSnapshot materialize() const;

private:
    template <class Cell>
    struct RowSlot {
        std::once_flag once;
        std::vector<Cell> cells;
    };

    [[nodiscard]] const std::vector<Weight>& estimate_row(NodeId u) const;
    [[nodiscard]] const std::vector<NodeId>& hop_row(NodeId u) const;
    void check_node(NodeId v, const char* what) const;

    std::shared_ptr<const char> file_; ///< the whole file, mapped read-only
    std::uint64_t file_bytes_ = 0;
    std::string_view payload_; ///< inside file_
    SnapshotMeta meta_;

    // Payload offsets of every row, n+1 per section (row u spans
    // [rows[u], rows[u+1])); hop_rows_ is empty without routing.
    std::vector<std::size_t> estimate_rows_;
    std::vector<std::size_t> hop_rows_;

    // Rows decoded on first touch.
    mutable std::unique_ptr<RowSlot<Weight>[]> estimate_cache_;
    mutable std::unique_ptr<RowSlot<NodeId>[]> hop_cache_;
};

} // namespace ccq

#endif // CCQ_SERVE_SNAPSHOT_HPP
