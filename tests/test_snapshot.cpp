// Tests for the oracle snapshot format: round-trip fidelity, version
// gating (including the retired version 1), corruption detection
// (truncation, bit flips, bad magic, forged fields), and replacing a
// snapshot file that a reader still maps.
// Every reader takes a file, so hand-made bytes are written to one.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <sstream>
#include <thread>

#include "ccq/common/bytes.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
#include "ccq/spanner/baswana_sen.hpp"
#include "test_helpers.hpp"

namespace ccq {
namespace {

using testing::InstanceSpec;

/// A small built oracle (with routing) for serialization tests.
/// from_result borrows the build's cells, and the build dies on return,
/// so the estimate and tables are moved into the snapshot's handles.
OracleSnapshot make_snapshot(const InstanceSpec& spec)
{
    const Graph g = testing::make_instance(spec);
    ApspOptions options;
    options.seed = spec.seed;
    ApspResult result = logn_approx_apsp(g, options);
    RoutingTables routing = build_routing_tables(g);
    OracleSnapshot snapshot = OracleSnapshot::from_result(g, result, options.seed, &routing);
    snapshot.estimate = std::make_shared<const DistanceMatrix>(std::move(result.estimate));
    snapshot.routing = std::make_shared<const RoutingTables>(std::move(routing));
    return snapshot;
}

/// Serializes to an in-memory byte string.
std::string to_bytes(const OracleSnapshot& snapshot, const EngineConfig& engine = {})
{
    std::ostringstream out(std::ios::binary);
    write_snapshot(out, snapshot, SnapshotFormat::v2_compressed, engine);
    return out.str();
}

/// Recomputes the trailing FNV-1a checksum after a payload mutation, so
/// a test exercises structural validation instead of checksum rejection.
void rehash(std::string& bytes)
{
    const std::size_t header_size = 8 + 4 + 8;
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = header_size; i < bytes.size() - 8; ++i) {
        hash ^= static_cast<unsigned char>(bytes[i]);
        hash *= 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((hash >> (8 * i)) & 0xff);
}

/// Loads a snapshot from raw bytes, through a file.
OracleSnapshot from_bytes(const std::string& bytes)
{
    const testing::TempFile file("ccq_snapshot_from_bytes.snap", bytes);
    return load_snapshot(file.path());
}

void expect_equal(const OracleSnapshot& a, const OracleSnapshot& b)
{
    EXPECT_EQ(a.meta, b.meta);
    EXPECT_EQ(*a.estimate, *b.estimate);
    ASSERT_EQ(a.routing == nullptr, b.routing == nullptr);
    if (a.routing != nullptr) {
        ASSERT_EQ(a.routing->size(), b.routing->size());
        for (NodeId u = 0; u < a.routing->size(); ++u)
            for (NodeId v = 0; v < a.routing->size(); ++v)
                EXPECT_EQ(a.routing->next_hop(u, v), b.routing->next_hop(u, v));
    }
}

TEST(Snapshot, RoundTripsOnRandomGraphs)
{
    for (const InstanceSpec spec :
         {InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 3},
          InstanceSpec{GraphFamily::clustered, 48, 5},
          InstanceSpec{GraphFamily::tree, 24, 9}}) {
        const OracleSnapshot original = make_snapshot(spec);
        const OracleSnapshot loaded = from_bytes(to_bytes(original));
        expect_equal(original, loaded);
    }
}

TEST(Snapshot, RoundTripsThroughAFile)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 7});
    const std::string path = ::testing::TempDir() + "ccq_snapshot_roundtrip.snap";
    save_snapshot(path, original);
    const OracleSnapshot loaded = load_snapshot(path);
    expect_equal(original, loaded);
    std::remove(path.c_str());
}

TEST(Snapshot, RoundTripsWithoutRouting)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::grid, 25, 2});
    const ApspResult result = logn_approx_apsp(g, {});
    const OracleSnapshot original = OracleSnapshot::from_result(g, result, 1);
    EXPECT_EQ(original.routing, nullptr);
    const OracleSnapshot loaded = from_bytes(to_bytes(original));
    expect_equal(original, loaded);
}

TEST(Snapshot, MetaRecordsTheBuild)
{
    const InstanceSpec spec{GraphFamily::erdos_renyi_sparse, 36, 11};
    const Graph g = testing::make_instance(spec);
    ApspOptions options;
    options.seed = 77;
    const ApspResult result = logn_approx_apsp(g, options);
    const OracleSnapshot snapshot = OracleSnapshot::from_result(g, result, options.seed);
    EXPECT_EQ(snapshot.meta.node_count, g.node_count());
    EXPECT_EQ(snapshot.meta.edge_count, g.edge_count());
    EXPECT_FALSE(snapshot.meta.directed);
    EXPECT_EQ(snapshot.meta.max_weight, g.max_weight());
    EXPECT_EQ(snapshot.meta.algorithm, result.algorithm);
    EXPECT_DOUBLE_EQ(snapshot.meta.claimed_stretch, result.claimed_stretch);
    EXPECT_DOUBLE_EQ(snapshot.meta.total_rounds, result.ledger.total_rounds());
    EXPECT_EQ(snapshot.meta.total_words, result.ledger.total_words());
    EXPECT_EQ(snapshot.meta.build_seed, 77u);
}

TEST(Snapshot, RejectsBadMagic)
{
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[0] = 'X';
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
}

TEST(Snapshot, RejectsVersionMismatch)
{
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1); // little-endian u32 after magic
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
    }
}

TEST(Snapshot, RejectsTruncationAtEveryRegion)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    // Header, payload interior, and dropped checksum tail.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, std::size_t{19}, bytes.size() / 2, bytes.size() - 3}) {
        EXPECT_THROW((void)from_bytes(bytes.substr(0, keep)), snapshot_io_error)
            << "kept " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(Snapshot, DetectsFlippedPayloadBytes)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    const std::size_t header_size = 8 + 4 + 8;
    // Flip a byte in several payload positions; the checksum must catch all.
    for (const std::size_t offset :
         {header_size, header_size + 9, (header_size + bytes.size() - 8) / 2, bytes.size() - 9}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "flip at offset " << offset;
    }
}

TEST(Snapshot, DetectsFlippedChecksumBytes)
{
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    std::string corrupted = bytes;
    corrupted[bytes.size() - 1] = static_cast<char>(corrupted[bytes.size() - 1] ^ 0x01);
    EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error);
}

TEST(Snapshot, RejectsTrailingGarbageInsidePayloadLength)
{
    // Corrupt the declared payload length so the reader sees extra bytes.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    bytes[12] = static_cast<char>(bytes[12] + 1); // length field, low byte
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
}

TEST(Snapshot, CorruptedLengthFieldFailsCleanlyWithoutHugeAllocation)
{
    // The length field is outside the checksummed payload; flipping its
    // high bytes must surface as snapshot_io_error, not std::bad_alloc.
    const std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    for (const std::size_t offset : {std::size_t{12}, std::size_t{18}, std::size_t{19}}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "length byte at offset " << offset;
    }
}

// --- decoded-cell range validation ------------------------------------------
//
// The dense engine's raw-add kernels require every cell in
// [0, kInfinity]; the writer trusts its callers, so a crafted snapshot
// can carry anything.  The reader must reject out-of-range cells at
// load time instead of handing them back to the engine.

/// A structurally valid snapshot whose estimate holds one illegal cell
/// (snapshot cells are immutable, so the forged estimate is a copy).
OracleSnapshot snapshot_with_bad_cell(Weight bad)
{
    OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    auto estimate = std::make_shared<DistanceMatrix>(*snapshot.estimate);
    estimate->at(2, 7) = bad;
    snapshot.estimate = std::move(estimate);
    return snapshot;
}

TEST(SnapshotCellValidation, OutOfRangeEstimateCellsAreRejected)
{
    for (const Weight bad : {kInfinity + 1, kInfinity + 12345, Weight{-1},
                             std::numeric_limits<Weight>::max(),
                             std::numeric_limits<Weight>::min()}) {
        try {
            (void)from_bytes(to_bytes(snapshot_with_bad_cell(bad)));
            FAIL() << "accepted cell " << bad;
        } catch (const snapshot_io_error& error) {
            EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
                << error.what();
        }
    }
    // kInfinity itself (unreachable) stays legal.
    EXPECT_EQ(from_bytes(to_bytes(snapshot_with_bad_cell(kInfinity))).estimate->at(2, 7),
              kInfinity);
}

TEST(SnapshotCellValidation, OutOfRangeNextHopsAreRejected)
{
    OracleSnapshot forged = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    std::vector<NodeId> hops(100, -1);
    hops[5] = 10; // one past the node range
    forged.routing = std::make_shared<const RoutingTables>(10, std::move(hops));
    try {
        (void)from_bytes(to_bytes(forged));
        FAIL() << "accepted a bad hop";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
            << error.what();
    }
}

TEST(Snapshot, FromResultValidatesSizes)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::tree, 12, 1});
    const ApspResult result = logn_approx_apsp(g, {});
    const Graph other = testing::make_instance(InstanceSpec{GraphFamily::tree, 8, 1});
    EXPECT_THROW((void)OracleSnapshot::from_result(other, result, 1), check_error);
    const RoutingTables wrong_size = build_routing_tables(other);
    EXPECT_THROW((void)OracleSnapshot::from_result(g, result, 1, &wrong_size), check_error);
}

TEST(Snapshot, LoadFailsOnMissingFile)
{
    EXPECT_THROW((void)load_snapshot("/nonexistent/ccq.snap"), snapshot_io_error);
}

// --- byte identity against the whole-payload encoder -----------------------
//
// write_snapshot encodes rows in parallel batches and streams them with
// an incremental checksum.  Its bytes must equal those of the encoder
// it replaced, kept here: the whole payload built in one string, cell
// by cell, then wrapped in the envelope.

void reference_meta(std::string& payload, const SnapshotMeta& meta)
{
    put_i32(payload, meta.node_count);
    put_u64(payload, meta.edge_count);
    put_u32(payload, meta.directed ? 1 : 0);
    put_i64(payload, meta.max_weight);
    put_string(payload, meta.algorithm);
    put_f64(payload, meta.claimed_stretch);
    put_f64(payload, meta.total_rounds);
    put_u64(payload, meta.total_words);
    put_u64(payload, meta.build_seed);
}

template <class Cell>
void reference_v2_rows(std::string& payload, int n, const std::vector<Cell>& cells)
{
    std::string blob;
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (int u = 0; u < n; ++u) {
        std::int64_t prev = 0;
        for (int v = 0; v < n; ++v) {
            const auto value = static_cast<std::int64_t>(
                cells[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
                      static_cast<std::size_t>(v)]);
            // value - prev, wrapping: forged cells must encode without UB.
            put_varint_i64(blob, static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                                           static_cast<std::uint64_t>(prev)));
            prev = value;
        }
        offsets[static_cast<std::size_t>(u) + 1] = blob.size();
    }
    for (const std::uint64_t offset : offsets) put_u64(payload, offset);
    payload += blob;
}

std::string reference_payload_v2(const OracleSnapshot& snapshot)
{
    const int n = snapshot.meta.node_count;
    std::string payload;
    reference_meta(payload, snapshot.meta);
    std::vector<Weight> estimate;
    std::vector<NodeId> hops;
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            estimate.push_back(snapshot.estimate->at(u, v));
            if (snapshot.routing != nullptr) hops.push_back(snapshot.routing->next_hop(u, v));
        }
    reference_v2_rows(payload, n, estimate);
    put_u32(payload, snapshot.routing != nullptr ? 1 : 0);
    if (snapshot.routing != nullptr) reference_v2_rows(payload, n, hops);
    return payload;
}

/// An envelope around `payload` with a valid checksum.
std::string envelope(std::uint32_t version, const std::string& payload)
{
    std::string bytes = "CCQSNAP\n";
    put_u32(bytes, version);
    put_u64(bytes, payload.size());
    bytes += payload;
    put_u64(bytes, 0);
    rehash(bytes);
    return bytes;
}

std::string reference_bytes(const OracleSnapshot& snapshot)
{
    return envelope(format_version(SnapshotFormat::v2_compressed), reference_payload_v2(snapshot));
}

/// A synthetic snapshot of any size: estimate cells mix zeros, small and
/// large distances and kInfinity; next hops are anything in [-1, n).
OracleSnapshot random_snapshot(int n, std::uint64_t seed, bool with_routing)
{
    Rng rng(seed);
    OracleSnapshot snapshot;
    snapshot.meta.node_count = n;
    snapshot.meta.edge_count = static_cast<std::uint64_t>(n) * 3;
    snapshot.meta.algorithm = "synthetic";
    snapshot.meta.claimed_stretch = 7.5;
    snapshot.meta.total_rounds = 42.25;
    snapshot.meta.total_words = 12345;
    snapshot.meta.build_seed = seed;
    auto estimate = std::make_shared<DistanceMatrix>(n);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            const std::int64_t pick = rng.uniform_int(0, 9);
            estimate->at(u, v) = pick == 0   ? kInfinity
                                 : pick == 1 ? rng.uniform_int(0, kInfinity - 1)
                                             : rng.uniform_int(0, 300);
        }
    snapshot.estimate = std::move(estimate);
    if (with_routing) {
        std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
        for (NodeId& hop : hops) hop = static_cast<NodeId>(rng.uniform_int(-1, n - 1));
        snapshot.routing = std::make_shared<const RoutingTables>(n, std::move(hops));
    }
    return snapshot;
}

/// The writer's bytes equal the reference encoder's at every thread
/// count.  Returns the reference bytes.
std::string expect_bytes_match_reference(const OracleSnapshot& snapshot,
                                         const std::string& context)
{
    const std::string want = reference_bytes(snapshot);
    for (const int threads : {1, 2, 4}) {
        const std::string got = to_bytes(snapshot, EngineConfig{threads, 64});
        EXPECT_EQ(got.size(), want.size()) << context << " threads=" << threads;
        EXPECT_TRUE(got == want) << context << " threads=" << threads;
    }
    return want;
}

constexpr std::size_t kHeader = 8 + 4 + 8;

/// The encoded length of a meta block: its fields in order, the
/// algorithm name behind a u32 length.
[[nodiscard]] std::size_t meta_bytes(const SnapshotMeta& meta)
{
    return 4 + 8 + 4 + 8 + (4 + meta.algorithm.size()) + 8 + 8 + 8 + 8;
}

[[nodiscard]] std::uint64_t get_field(const std::string& bytes, std::size_t pos, int width)
{
    std::uint64_t value = 0;
    for (int i = 0; i < width; ++i)
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(i)]))
                 << (8 * i);
    return value;
}

TEST(SnapshotWriter, BytesMatchTheReferenceEncoderForEveryThreadCount)
{
    for (const int n : {0, 1, 63, 64, 65, 129}) {
        const OracleSnapshot with_routing =
            random_snapshot(n, static_cast<std::uint64_t>(n) + 1, true);
        expect_bytes_match_reference(with_routing, "n=" + std::to_string(n) + " routing");
        OracleSnapshot without_routing = with_routing;
        without_routing.routing = nullptr;
        expect_bytes_match_reference(without_routing, "n=" + std::to_string(n) + " no routing");
    }
    // At n=2048 both sections span several write batches of 4 MiB, so
    // the pipeline that streams one batch while the next is encoded runs
    // many times over.  A section's blob length is the last entry of its
    // offset table; a blob over one batch is split across at least two.
    const OracleSnapshot large = random_snapshot(2048, 2049, true);
    const std::string bytes = expect_bytes_match_reference(large, "n=2048 routing");
    const std::size_t rows = 2048;
    const std::size_t estimate_table = kHeader + meta_bytes(large.meta);
    const std::uint64_t estimate_blob = get_field(bytes, estimate_table + 8 * rows, 8);
    const std::size_t hop_table = estimate_table + 8 * (rows + 1) + estimate_blob + 4;
    const std::uint64_t hop_blob = get_field(bytes, hop_table + 8 * rows, 8);
    constexpr std::uint64_t kBatchBytes = 4 << 20;
    EXPECT_GT(estimate_blob, kBatchBytes);
    EXPECT_GT(hop_blob, kBatchBytes);
    EXPECT_EQ(hop_table + 8 * (rows + 1) + hop_blob + 8, bytes.size());
    expect_bytes_match_reference(make_snapshot(InstanceSpec{GraphFamily::clustered, 48, 5}),
                                 "built oracle");
}

TEST(SnapshotWriter, ForgedCellsAndHopsMatchTheReferenceEncoder)
{
    // The writer trusts its caller: out-of-range cells and hops are
    // written as given (the reader rejects them), in the same bytes.
    for (const Weight bad : {kInfinity + 1, kInfinity + 12345, Weight{-1},
                             std::numeric_limits<Weight>::max(),
                             std::numeric_limits<Weight>::min()})
        expect_bytes_match_reference(snapshot_with_bad_cell(bad),
                                     "bad cell " + std::to_string(bad));
    OracleSnapshot forged = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    std::vector<NodeId> hops(100, -1);
    hops[5] = 10;
    hops[17] = std::numeric_limits<NodeId>::min();
    hops[42] = std::numeric_limits<NodeId>::max();
    forged.routing = std::make_shared<const RoutingTables>(10, std::move(hops));
    expect_bytes_match_reference(forged, "bad hops");
}

// --- from_result borrows the build's cells ---------------------------------

TEST(SnapshotBorrowing, FromResultSharesTheBuildsCells)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 3});
    const ApspResult result = logn_approx_apsp(g, {});
    const RoutingTables routing = build_routing_tables(g);
    const OracleSnapshot snapshot = OracleSnapshot::from_result(g, result, 1, &routing);
    EXPECT_EQ(snapshot.estimate.get(), &result.estimate);
    EXPECT_EQ(snapshot.estimate->data(), result.estimate.data());
    EXPECT_EQ(snapshot.routing.get(), &routing);
    EXPECT_EQ(snapshot.routing->row(0).data(), routing.row(0).data());

    // Copies and the engines built from them share the cells too.
    const OracleSnapshot copy = snapshot;
    EXPECT_EQ(copy.estimate->data(), result.estimate.data());
    const QueryEngine engine(snapshot);
    const auto& source = dynamic_cast<const DenseSnapshotSource&>(engine.source());
    EXPECT_EQ(source.snapshot().estimate->data(), result.estimate.data());
    EXPECT_EQ(source.snapshot().routing.get(), &routing);
}

TEST(SnapshotBorrowing, BorrowedAndOwnedSnapshotsWriteIdenticalBytes)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::clustered, 48, 5});
    ApspOptions options;
    options.seed = 5;
    const ApspResult result = logn_approx_apsp(g, options);
    const RoutingTables routing = build_routing_tables(g);
    const OracleSnapshot borrowed = OracleSnapshot::from_result(g, result, options.seed, &routing);
    for (const int threads : {1, 4}) {
        const EngineConfig engine{threads, 64};
        const std::string written = to_bytes(borrowed, engine);
        const OracleSnapshot owned = from_bytes(written);
        EXPECT_NE(owned.estimate->data(), result.estimate.data());
        EXPECT_TRUE(to_bytes(owned, engine) == written) << "threads=" << threads;
    }
}

// --- codec v2 structure, and the retired version 1 --------------------------

TEST(SnapshotV2, WriterRejectsEveryFormatButV2)
{
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(write_snapshot(out, snapshot, SnapshotFormat::v3_spanner), check_error);
    EXPECT_THROW(write_snapshot(out, snapshot, static_cast<SnapshotFormat>(1)), check_error);
    EXPECT_EQ(to_bytes(snapshot)[8], 2);
}

TEST(SnapshotV2, PayloadRelabeledAsAnotherVersionIsRejected)
{
    // The version field is outside the checksummed payload, so flipping
    // it alone passes the checksum; the reader for the claimed version
    // must reject the payload (and not crash or misread).
    const std::string v2 = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    for (const char version : {char{1}, char{3}}) {
        std::string relabeled = v2;
        relabeled[8] = version;
        const testing::TempFile file("ccq_snapshot_relabeled.snap", relabeled);
        EXPECT_THROW((void)load_snapshot(file.path()), snapshot_io_error) << int{version};
        EXPECT_THROW((void)load_sparse_snapshot(file.path()), snapshot_io_error) << int{version};
    }
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 16, 4});
    Rng rng(4);
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(
        out, SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 4));
    std::string v3 = out.str();
    v3[8] = 2;
    EXPECT_THROW((void)from_bytes(v3), snapshot_io_error);
}

TEST(SnapshotRetired, VersionOneFilesAreRejectedByEveryReader)
{
    // A version-1 file as the retired codec wrote it: meta, n^2 i64
    // cells row-major and a clear routing flag, under a valid checksum.
    SnapshotMeta meta;
    meta.node_count = 2;
    meta.algorithm = "exact-minplus";
    std::string payload;
    reference_meta(payload, meta);
    for (const Weight cell : {Weight{0}, Weight{5}, Weight{5}, Weight{0}}) put_i64(payload, cell);
    put_u32(payload, 0);
    const testing::TempFile file("ccq_snapshot_v1.snap", envelope(1, payload));

    const auto expect_retired = [&](const char* reader, const auto& open) {
        try {
            (void)open(file.path());
            FAIL() << reader << " accepted a version-1 file";
        } catch (const snapshot_io_error& error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("version 1"), std::string::npos) << reader << ": " << what;
            EXPECT_NE(what.find("retired"), std::string::npos) << reader << ": " << what;
            EXPECT_NE(what.find("rebuild"), std::string::npos) << reader << ": " << what;
        }
    };
    expect_retired("peek_snapshot_format",
                   [](const std::string& path) { return peek_snapshot_format(path); });
    expect_retired("MappedSnapshot",
                   [](const std::string& path) { return std::make_unique<MappedSnapshot>(path); });
    expect_retired("load_snapshot", [](const std::string& path) { return load_snapshot(path); });
    expect_retired("open_distance_source",
                   [](const std::string& path) { return open_distance_source(path); });
    expect_retired("open_distance_source (mmap)", [](const std::string& path) {
        return open_distance_source(path, DistanceSourceOptions{.prefer_mmap = true});
    });
}

TEST(SnapshotV2, ForgedNodeCountIsRejectedBeforeAllocation)
{
    // FNV-1a detects accidents, not forgery: a crafted huge node_count
    // with a recomputed checksum dies on the payload-size bound, not on
    // an n^2 allocation.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    const std::size_t header_size = 8 + 4 + 8;
    bytes[header_size + 0] = 0;
    bytes[header_size + 1] = 0;
    bytes[header_size + 2] = 0;
    bytes[header_size + 3] = 0x40; // node_count = 2^30
    rehash(bytes);
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("exceeds payload size"), std::string::npos)
            << error.what();
    }
}

TEST(SnapshotV2, CorruptedRowOffsetsAreRejectedEvenWithAValidChecksum)
{
    // Break the estimate row-offset table structurally (non-monotone /
    // out-of-bounds) and rehash, so only the v2 validation can object.
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string good = to_bytes(snapshot);
    // The offset table starts right after the meta block: flip a high
    // byte of several of its u64 entries.
    for (int entry = 1; entry <= 3; ++entry) {
        std::string corrupted = good;
        const std::size_t offset_pos = kHeader + meta_bytes(snapshot.meta) +
                                       static_cast<std::size_t>(entry) * 8 + 6; // high byte
        corrupted[offset_pos] = static_cast<char>(0x7f);
        rehash(corrupted);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error) << "entry " << entry;
    }
}

// --- mmap-backed loading ----------------------------------------------------

class SnapshotMmap : public ::testing::Test {
protected:
    [[nodiscard]] static std::string write_file(const OracleSnapshot& snapshot,
                                                const std::string& name)
    {
        const std::string path = ::testing::TempDir() + name;
        save_snapshot(path, snapshot);
        return path;
    }
};

TEST_F(SnapshotMmap, ServesBitwiseIdenticalToEagerLoading)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13});
    const std::string path = write_file(original, "ccq_mmap_identical.snap");
    const MappedSnapshot mapped(path);
    EXPECT_EQ(mapped.meta(), original.meta);
    ASSERT_TRUE(mapped.has_routing());
    for (NodeId u = 0; u < 40; ++u)
        for (NodeId v = 0; v < 40; ++v) {
            ASSERT_EQ(mapped.distance(u, v), original.estimate->at(u, v)) << u << "->" << v;
            ASSERT_EQ(mapped.next_hop(u, v), original.routing->next_hop(u, v))
                << u << "->" << v;
        }
    for (NodeId u = 0; u < 40; ++u) {
        const std::span<const Weight> row = mapped.row(u);
        ASSERT_EQ(row.size(), 40u);
        for (NodeId v = 0; v < 40; ++v)
            ASSERT_EQ(row[static_cast<std::size_t>(v)], original.estimate->at(u, v));
    }
    for (NodeId u = 0; u < 40; u += 7)
        for (NodeId v = 0; v < 40; v += 5)
            EXPECT_EQ(mapped.route(u, v), original.routing->route(u, v));
    expect_equal(original, mapped.materialize());
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, ConcurrentLazyRowDecodingIsConsistent)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::clustered, 48, 5});
    const std::string path = write_file(original, "ccq_mmap_concurrent.snap");
    const MappedSnapshot mapped(path);
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int w = 0; w < 4; ++w)
        workers.emplace_back([&, w] {
            // Overlapping row sets force concurrent first-touch decodes.
            for (NodeId u = 0; u < 48; ++u)
                for (NodeId v = static_cast<NodeId>(w); v < 48; v += 2)
                    if (mapped.distance(u, v) != original.estimate->at(u, v))
                        failures.fetch_add(1);
        });
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(failures.load(), 0);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, RejectsCorruptionTruncationAndBadMagicAtOpen)
{
    const OracleSnapshot original = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string good = to_bytes(original);
    const std::string path = ::testing::TempDir() + "ccq_mmap_corrupt.snap";

    const auto write_raw = [&](const std::string& bytes) {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };

    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x20;
    write_raw(flipped);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    write_raw(good.substr(0, good.size() - 10));
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    write_raw(bad_magic);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    std::string bad_version = good;
    bad_version[8] = 99;
    write_raw(bad_version);
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    // Trailing garbage after the checksum: the file size no longer
    // matches the declared payload length.
    write_raw(good + "extra");
    EXPECT_THROW((void)MappedSnapshot(path), snapshot_io_error);

    EXPECT_THROW((void)MappedSnapshot("/nonexistent/ccq.snap"), snapshot_io_error);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, OutOfRangeCellsAreRejectedOnFirstTouch)
{
    // Rows decode lazily: the open validates structure, the poisoned
    // row is rejected on first touch, and clean rows still answer.
    const OracleSnapshot forged = snapshot_with_bad_cell(kInfinity + 99);
    const std::string path = write_file(forged, "ccq_mmap_badcell.snap");
    const MappedSnapshot mapped(path);
    EXPECT_EQ(mapped.distance(0, 7), forged.estimate->at(0, 7));
    EXPECT_THROW((void)mapped.distance(2, 7), snapshot_io_error);
    EXPECT_THROW((void)mapped.materialize(), snapshot_io_error);
    std::remove(path.c_str());
}

TEST_F(SnapshotMmap, QueryEngineOverMmapMatchesInMemoryEngine)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 7});
    const std::string path = write_file(original, "ccq_mmap_engine.snap");
    const QueryEngine reference(original);
    const QueryEngine served(std::make_shared<const MappedSnapshot>(path));
    EXPECT_EQ(served.source_kind(), SourceKind::mapped);
    EXPECT_EQ(served.meta(), reference.meta());
    for (NodeId u = 0; u < 32; ++u) {
        for (NodeId v = 0; v < 32; v += 3) {
            ASSERT_EQ(served.distance(u, v), reference.distance(u, v));
            ASSERT_EQ(served.path(u, v), reference.path(u, v));
        }
        ASSERT_EQ(served.nearest_targets(u, 5), reference.nearest_targets(u, 5));
    }
    std::remove(path.c_str());
}

// --- replacing a snapshot file ----------------------------------------------

TEST(SnapshotReplace, SavingOverAMappedFileLeavesTheMappingOnTheOldOracle)
{
    // Rewriting the file in place truncated it under the mapping, and
    // the mapping's next read died of SIGBUS.
    const OracleSnapshot old_oracle = random_snapshot(400, 401, true);
    const OracleSnapshot new_oracle = random_snapshot(20, 21, true);
    const std::string path = ::testing::TempDir() + "ccq_snapshot_replaced.snap";
    save_snapshot(path, old_oracle);
    const MappedSnapshot mapped(path);
    save_snapshot(path, new_oracle);
    for (NodeId u = 0; u < 400; ++u)
        for (NodeId v = 0; v < 400; ++v) {
            ASSERT_EQ(mapped.distance(u, v), old_oracle.estimate->at(u, v)) << u << "->" << v;
            ASSERT_EQ(mapped.next_hop(u, v), old_oracle.routing->next_hop(u, v))
                << u << "->" << v;
        }
    expect_equal(new_oracle, load_snapshot(path));
    std::remove(path.c_str());
}

/// A small spanner snapshot for the v3 paths.
SparseSnapshot small_sparse_snapshot()
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::erdos_renyi_sparse, 16, 4});
    Rng rng(4);
    return SparseSnapshot::from_spanner(g, baswana_sen_spanner(g, 2, rng), "baswana-sen", 4);
}

TEST(SnapshotReplace, SavesCreateFilesUnderTheUmaskAndLeaveNothingBehindOnFailure)
{
    const std::filesystem::path dir = ::testing::TempDir() + "ccq_snapshot_replace_dir";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string dense = (dir / "oracle.snap").string();
    const std::string sparse = (dir / "spanner.snap").string();
    const OracleSnapshot original = random_snapshot(8, 9, true);
    const SparseSnapshot spanner = small_sparse_snapshot();

    // Mode 0666 under the umask, as a plain ofstream creates files.
    const mode_t mask = ::umask(027);
    save_snapshot(dense, original);
    save_sparse_snapshot(sparse, spanner);
    ::umask(mask);
    for (const std::string& path : {dense, sparse}) {
        struct stat info = {};
        ASSERT_EQ(::stat(path.c_str(), &info), 0) << path;
        EXPECT_EQ(info.st_mode & 0777, 0640u) << path;
    }

    // A failed write keeps the old file and removes its sibling.
    OracleSnapshot broken = original;
    broken.estimate = nullptr;
    EXPECT_THROW(save_snapshot(dense, broken), check_error);
    SparseSnapshot broken_spanner = spanner;
    broken_spanner.edges.push_back({0, 99, 1}); // endpoint out of range
    EXPECT_THROW(save_sparse_snapshot(sparse, broken_spanner), check_error);
    expect_equal(original, load_snapshot(dense));
    EXPECT_EQ(load_sparse_snapshot(sparse), spanner);
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"oracle.snap", "spanner.snap"}));

    // Writers and readers take regular files only.
    EXPECT_THROW(save_snapshot(dir.string(), original), snapshot_io_error);
    EXPECT_THROW(save_snapshot((dir / "missing" / "x.snap").string(), original),
                 snapshot_io_error);
    EXPECT_THROW((void)MappedSnapshot(dir.string()), snapshot_io_error);
    EXPECT_THROW((void)load_sparse_snapshot(dir.string()), snapshot_io_error);
    EXPECT_THROW((void)peek_snapshot_format(dir.string()), snapshot_io_error);
    // A FIFO is refused at once, not after waiting for a writer.
    const std::string fifo = (dir / "fifo.snap").string();
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    EXPECT_THROW((void)MappedSnapshot(fifo), snapshot_io_error);
    EXPECT_THROW((void)load_sparse_snapshot(fifo), snapshot_io_error);
    EXPECT_THROW((void)peek_snapshot_format(fifo), snapshot_io_error);
    EXPECT_THROW(save_snapshot(fifo, original), snapshot_io_error);
    std::filesystem::remove_all(dir);
}

// --- seeded mutation over the one reader -------------------------------------
//
// Mutants of valid v2 and v3 files: bit flips, truncations, and
// forged length fields, node counts, payload lengths and offset-table
// words.  All but the plain flips, cuts and length forgeries re-stamp
// the checksum, so the structure checks are what must object.  Each
// mutant either fails with snapshot_io_error (at open, or for v2 when
// a bad row is first touched) or loads cells inside the invariants:
// estimates in [0, kInfinity], next hops in [-1, n), spanner edges
// u < v < n with weights in [0, kInfinity).  The eager and the mapped
// open agree.  Any other exception fails the test.

void put_field(std::string& bytes, std::size_t pos, std::uint64_t value, int width)
{
    for (int i = 0; i < width; ++i)
        bytes[pos + static_cast<std::size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/// A forged value for a field: near the original, small, or anything.
[[nodiscard]] std::uint64_t forged_value(Rng& rng, std::uint64_t original)
{
    switch (rng.uniform_int(0, 2)) {
    case 0: return original + static_cast<std::uint64_t>(rng.uniform_int(-3, 3));
    case 1: return static_cast<std::uint64_t>(rng.uniform_int(0, 64));
    default: return rng.engine()();
    }
}

/// One mutant of `good`.  Forged words land on 8-byte fields in
/// [words, words_end): the v2 estimate offset table or the v3 spanner
/// offset table.
[[nodiscard]] std::string mutate(const std::string& good, Rng& rng, std::size_t words,
                                 std::size_t words_end)
{
    std::string bytes = good;
    const auto pick = [&](std::size_t begin, std::size_t end) {
        return static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end) - 1));
    };
    const std::size_t payload_end = bytes.size() - 8;
    switch (rng.uniform_int(0, 6)) {
    case 0: { // a bit flip anywhere
        const std::size_t pos = pick(0, bytes.size());
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform_int(0, 7)));
        return bytes;
    }
    case 1: // a cut
        bytes.resize(pick(0, bytes.size()));
        return bytes;
    case 2: // a forged length field
        put_field(bytes, 12, forged_value(rng, get_field(bytes, 12, 8)), 8);
        return bytes;
    case 3: { // a payload bit flip
        const std::size_t pos = pick(kHeader, payload_end);
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform_int(0, 7)));
        break;
    }
    case 4: { // a payload cut short or padded, with a length field to match
        std::string payload = bytes.substr(kHeader, payload_end - kHeader);
        const std::size_t keep = pick(0, payload.size() + 17);
        while (payload.size() < keep) payload.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        payload.resize(keep);
        bytes = bytes.substr(0, 12);
        put_u64(bytes, payload.size());
        bytes += payload;
        put_u64(bytes, 0);
        break;
    }
    case 5: // a forged node count
        put_field(bytes, kHeader, forged_value(rng, get_field(bytes, kHeader, 4)), 4);
        break;
    default: { // a forged offset-table entry
        const std::size_t pos = words + 8 * pick(0, (words_end - words) / 8);
        put_field(bytes, pos, forged_value(rng, get_field(bytes, pos, 8)), 8);
        break;
    }
    }
    rehash(bytes);
    return bytes;
}

struct MutantTally {
    int accepted = 0;
    int rejected = 0;
};

/// Loads a dense mutant eagerly and mapped, and checks the contract.
void expect_dense_mutant_rejected_or_in_range(const std::string& bytes, const std::string& context,
                                              MutantTally& tally)
{
    const testing::TempFile file("ccq_snapshot_mutant.snap", bytes);
    std::optional<OracleSnapshot> eager;
    try {
        eager = load_snapshot(file.path());
    } catch (const snapshot_io_error&) {
    }
    std::unique_ptr<MappedSnapshot> mapped;
    try {
        mapped = std::make_unique<MappedSnapshot>(file.path());
    } catch (const snapshot_io_error&) {
        EXPECT_FALSE(eager) << context << ": only the mapped open rejected it";
        ++tally.rejected;
        return;
    }
    const int n = mapped->node_count();
    bool row_failed = false;
    for (NodeId u = 0; u < n; ++u) {
        try {
            for (NodeId v = 0; v < n; ++v) {
                const Weight cell = mapped->distance(u, v);
                ASSERT_TRUE(cell >= 0 && cell <= kInfinity) << context << " cell " << cell;
                if (eager) {
                    ASSERT_EQ(cell, eager->estimate->at(u, v)) << context;
                }
                if (!mapped->has_routing()) continue;
                const NodeId hop = mapped->next_hop(u, v);
                ASSERT_TRUE(hop >= -1 && hop < n) << context << " hop " << hop;
                if (eager) {
                    ASSERT_EQ(hop, eager->routing->next_hop(u, v)) << context;
                }
            }
        } catch (const snapshot_io_error&) {
            row_failed = true;
        }
    }
    EXPECT_EQ(eager.has_value(), !row_failed) << context << ": eager and mapped opens disagree";
    if (eager) {
        EXPECT_EQ(eager->meta, mapped->meta()) << context;
        EXPECT_EQ(eager->routing != nullptr, mapped->has_routing()) << context;
    }
    ++(row_failed ? tally.rejected : tally.accepted);
}

void expect_sparse_mutant_rejected_or_in_range(const std::string& bytes,
                                               const std::string& context, MutantTally& tally)
{
    const testing::TempFile file("ccq_snapshot_mutant_v3.snap", bytes);
    std::optional<SparseSnapshot> loaded;
    try {
        loaded = load_sparse_snapshot(file.path());
    } catch (const snapshot_io_error&) {
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    const int n = loaded->meta.node_count;
    std::vector<Weight> weight(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                               kInfinity);
    const auto edge_weight = [&](NodeId a, NodeId b) -> Weight& {
        return weight[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                      static_cast<std::size_t>(b)];
    };
    for (const WeightedEdge& edge : loaded->edges) {
        ASSERT_TRUE(edge.u >= 0 && edge.u < edge.v && edge.v < n) << context;
        ASSERT_TRUE(edge.weight >= 0 && edge.weight < kInfinity) << context;
        edge_weight(edge.u, edge.v) = edge_weight(edge.v, edge.u) = edge.weight;
    }
    // Served as is: every route is empty or a walk over the mutant's own
    // edges that weighs exactly the served distance.
    const SpannerDistanceSource source(*loaded);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            const std::vector<NodeId> path = source.route(u, v);
            if (path.empty()) continue;
            ASSERT_EQ(path.front(), u) << context;
            ASSERT_EQ(path.back(), v) << context;
            Weight total = 0;
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                const Weight w = edge_weight(path[i], path[i + 1]);
                ASSERT_LT(w, kInfinity) << context << ": route " << u << " -> " << v
                                        << " leaves the edges";
                total = saturating_add(total, w);
            }
            ASSERT_EQ(total, source.distance(u, v)) << context << ": route " << u << " -> " << v;
        }
}

TEST(SnapshotMutation, EveryMutantIsRejectedOrLoadsCellsInRange)
{
    constexpr int kMutants = 400;
    const OracleSnapshot dense = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    {
        const std::string good = to_bytes(dense);
        const std::size_t table = kHeader + meta_bytes(dense.meta);
        const std::size_t table_end = table + 8 * (12 + 1);
        Rng rng(format_version(SnapshotFormat::v2_compressed));
        MutantTally tally;
        for (int i = 0; i < kMutants; ++i)
            expect_dense_mutant_rejected_or_in_range(mutate(good, rng, table, table_end),
                                                     "v2 mutant " + std::to_string(i), tally);
        EXPECT_GT(tally.accepted, 0);
        EXPECT_GT(tally.rejected, kMutants / 2);
    }

    const SparseSnapshot sparse = small_sparse_snapshot();
    std::ostringstream out(std::ios::binary);
    write_sparse_snapshot(out, sparse);
    const std::string good = out.str();
    const std::size_t table =
        kHeader + meta_bytes(sparse.meta) + 4 + 4 + (4 + sparse.construction.size()) + 8;
    const std::size_t table_end =
        table + 8 * (static_cast<std::size_t>(sparse.meta.node_count) + 1);
    Rng rng(3);
    MutantTally tally;
    for (int i = 0; i < kMutants; ++i)
        expect_sparse_mutant_rejected_or_in_range(mutate(good, rng, table, table_end),
                                                  "v3 mutant " + std::to_string(i), tally);
    EXPECT_GT(tally.accepted, 0);
    EXPECT_GT(tally.rejected, kMutants / 2);
}

} // namespace
} // namespace ccq
