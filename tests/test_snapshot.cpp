// Tests for the oracle snapshot format: round-trip fidelity, version
// gating, and corruption detection (truncation, bit flips, bad magic).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <sstream>
#include <thread>

#include "ccq/common/bytes.hpp"
#include "ccq/core/baselines.hpp"
#include "ccq/core/routing.hpp"
#include "ccq/serve/distance_source.hpp"
#include "ccq/serve/query_engine.hpp"
#include "ccq/serve/snapshot.hpp"
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
std::string to_bytes(const OracleSnapshot& snapshot, SnapshotFormat codec = SnapshotFormat::v1_raw,
                     const EngineConfig& engine = {})
{
    std::ostringstream out(std::ios::binary);
    write_snapshot(out, snapshot, codec, engine);
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

OracleSnapshot from_bytes(const std::string& bytes)
{
    std::istringstream in(bytes, std::ios::binary);
    return read_snapshot(in);
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

TEST(Snapshot, RoundTripsThroughStreamsOnRandomGraphs)
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

TEST(Snapshot, ForgedNodeCountIsRejectedBeforeAllocation)
{
    // FNV-1a detects accidents, not forgery: a crafted snapshot with a
    // huge node_count and a recomputed checksum must be rejected by the
    // payload-size bound, not by an n^2 allocation attempt.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}));
    const std::size_t header_size = 8 + 4 + 8;
    // Payload starts with the little-endian node count; forge 2^30.
    bytes[header_size + 0] = 0;
    bytes[header_size + 1] = 0;
    bytes[header_size + 2] = 0;
    bytes[header_size + 3] = 0x40;
    // Recompute the FNV-1a 64 checksum over the forged payload.
    std::uint64_t hash = 14695981039346656037ULL;
    for (std::size_t i = header_size; i < bytes.size() - 8; ++i) {
        hash ^= static_cast<unsigned char>(bytes[i]);
        hash *= 1099511628211ULL;
    }
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((hash >> (8 * i)) & 0xff);
    try {
        (void)from_bytes(bytes);
        FAIL() << "expected snapshot_io_error";
    } catch (const snapshot_io_error& error) {
        EXPECT_NE(std::string(error.what()).find("exceeds payload size"), std::string::npos)
            << error.what();
    }
}

// --- decoded-cell range validation (both codecs) ----------------------------
//
// The dense engine's raw-add kernels require every cell in
// [0, kInfinity]; the writer trusts its callers, so a crafted snapshot
// can carry anything.  Both codecs must reject out-of-range cells at
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

TEST(SnapshotCellValidation, OutOfRangeEstimateCellsAreRejectedByBothCodecs)
{
    for (const Weight bad : {kInfinity + 1, kInfinity + 12345, Weight{-1},
                             std::numeric_limits<Weight>::max(),
                             std::numeric_limits<Weight>::min()}) {
        const OracleSnapshot forged = snapshot_with_bad_cell(bad);
        for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
            try {
                (void)from_bytes(to_bytes(forged, codec));
                FAIL() << "codec " << static_cast<int>(codec) << " accepted cell " << bad;
            } catch (const snapshot_io_error& error) {
                EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
                    << error.what();
            }
        }
    }
    // kInfinity itself (unreachable) stays legal in both codecs.
    const OracleSnapshot legal = snapshot_with_bad_cell(kInfinity);
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed})
        EXPECT_EQ(from_bytes(to_bytes(legal, codec)).estimate->at(2, 7), kInfinity);
}

TEST(SnapshotCellValidation, OutOfRangeNextHopsAreRejectedByBothCodecs)
{
    OracleSnapshot forged = make_snapshot(InstanceSpec{GraphFamily::tree, 10, 4});
    std::vector<NodeId> hops(100, -1);
    hops[5] = 10; // one past the node range
    forged.routing = std::make_shared<const RoutingTables>(10, std::move(hops));
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        try {
            (void)from_bytes(to_bytes(forged, codec));
            FAIL() << "codec " << static_cast<int>(codec) << " accepted a bad hop";
        } catch (const snapshot_io_error& error) {
            EXPECT_NE(std::string(error.what()).find("out of range"), std::string::npos)
                << error.what();
        }
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

std::string reference_payload_v1(const OracleSnapshot& snapshot)
{
    const int n = snapshot.meta.node_count;
    std::string payload;
    reference_meta(payload, snapshot.meta);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) put_i64(payload, snapshot.estimate->at(u, v));
    put_u32(payload, snapshot.routing != nullptr ? 1 : 0);
    if (snapshot.routing != nullptr)
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v = 0; v < n; ++v) put_i32(payload, snapshot.routing->next_hop(u, v));
    return payload;
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

std::string reference_bytes(const OracleSnapshot& snapshot, SnapshotFormat codec)
{
    const std::string payload = codec == SnapshotFormat::v1_raw ? reference_payload_v1(snapshot)
                                                                : reference_payload_v2(snapshot);
    std::string bytes = "CCQSNAP\n";
    put_u32(bytes, format_version(codec));
    put_u64(bytes, payload.size());
    bytes += payload;
    put_u64(bytes, 0);
    rehash(bytes);
    return bytes;
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
/// count, and encoded_snapshot_bytes predicts their length.
void expect_bytes_match_reference(const OracleSnapshot& snapshot, const std::string& context)
{
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        const std::string want = reference_bytes(snapshot, codec);
        EXPECT_EQ(encoded_snapshot_bytes(snapshot, codec), want.size())
            << context << " " << snapshot_format_name(codec);
        for (const int threads : {1, 2, 4}) {
            const std::string got = to_bytes(snapshot, codec, EngineConfig{threads, 64});
            EXPECT_EQ(got.size(), want.size())
                << context << " " << snapshot_format_name(codec) << " threads=" << threads;
            EXPECT_TRUE(got == want)
                << context << " " << snapshot_format_name(codec) << " threads=" << threads;
        }
    }
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
    // At n=2048 the v1 sections span 8 and 4 write batches of 4 MiB (the
    // v2 ones fewer), so the pipeline that streams one batch while the
    // next is encoded runs many times over.
    expect_bytes_match_reference(random_snapshot(2048, 2049, true), "n=2048 routing");
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
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed})
        for (const int threads : {1, 4}) {
            const EngineConfig engine{threads, 64};
            const std::string written = to_bytes(borrowed, codec, engine);
            const OracleSnapshot owned = from_bytes(written);
            EXPECT_NE(owned.estimate->data(), result.estimate.data());
            EXPECT_TRUE(to_bytes(owned, codec, engine) == written)
                << snapshot_format_name(codec) << " threads=" << threads;
        }
}

// --- codec v2 (compressed) --------------------------------------------------

TEST(SnapshotV2, RoundTripsBitwiseOnRandomGraphs)
{
    for (const InstanceSpec spec :
         {InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 3},
          InstanceSpec{GraphFamily::clustered, 48, 5},
          InstanceSpec{GraphFamily::tree, 24, 9}}) {
        const OracleSnapshot original = make_snapshot(spec);
        const OracleSnapshot loaded =
            from_bytes(to_bytes(original, SnapshotFormat::v2_compressed));
        expect_equal(original, loaded);
    }
}

TEST(SnapshotV2, RoundTripsWithoutRouting)
{
    const Graph g = testing::make_instance(InstanceSpec{GraphFamily::grid, 25, 2});
    const ApspResult result = logn_approx_apsp(g, {});
    const OracleSnapshot original = OracleSnapshot::from_result(g, result, 1);
    const OracleSnapshot loaded = from_bytes(to_bytes(original, SnapshotFormat::v2_compressed));
    expect_equal(original, loaded);
}

TEST(SnapshotV2, CompressedIsStrictlySmallerThanRaw)
{
    const OracleSnapshot snapshot =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 64, 11});
    const std::size_t raw = to_bytes(snapshot, SnapshotFormat::v1_raw).size();
    const std::size_t compressed = to_bytes(snapshot, SnapshotFormat::v2_compressed).size();
    EXPECT_LT(compressed, raw);
    // Delta+varint should beat fixed 8-byte cells by a wide margin on
    // 1..100-weight instances; 2x is a deliberately loose floor.
    EXPECT_LT(compressed * 2, raw);
}

TEST(SnapshotV2, VersionFieldDistinguishesTheCodecs)
{
    // Back-compat contract: the default writer still produces version 1,
    // the compressed writer stamps version 2, and both load.
    const OracleSnapshot snapshot = make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1});
    const std::string v1 = to_bytes(snapshot, SnapshotFormat::v1_raw);
    const std::string v2 = to_bytes(snapshot, SnapshotFormat::v2_compressed);
    EXPECT_EQ(v1[8], 1);
    EXPECT_EQ(v2[8], 2);
    expect_equal(from_bytes(v1), from_bytes(v2));
}

TEST(SnapshotV2, RejectsTruncationAndBitFlipsLikeV1)
{
    const std::string bytes =
        to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                 SnapshotFormat::v2_compressed);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{5}, std::size_t{19}, bytes.size() / 2, bytes.size() - 3})
        EXPECT_THROW((void)from_bytes(bytes.substr(0, keep)), snapshot_io_error)
            << "kept " << keep;
    const std::size_t header_size = 8 + 4 + 8;
    for (const std::size_t offset :
         {header_size, header_size + 9, (header_size + bytes.size() - 8) / 2,
          bytes.size() - 9}) {
        std::string corrupted = bytes;
        corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error)
            << "flip at offset " << offset;
    }
}

TEST(SnapshotV2, V1PayloadRelabeledAsV2IsRejected)
{
    // The version field is outside the checksummed payload, so flipping
    // it alone passes the checksum; the structural row-table validation
    // must catch the mismatch (and not crash or misread).
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                 SnapshotFormat::v1_raw);
    bytes[8] = 2;
    EXPECT_THROW((void)from_bytes(bytes), snapshot_io_error);
    std::string reversed = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                    SnapshotFormat::v2_compressed);
    reversed[8] = 1;
    EXPECT_THROW((void)from_bytes(reversed), snapshot_io_error);
}

TEST(SnapshotV2, ForgedNodeCountIsRejectedBeforeAllocation)
{
    // Same contract as v1: a crafted huge node_count with a recomputed
    // checksum dies on the payload-size bound, not on an n^2 allocation.
    std::string bytes = to_bytes(make_snapshot(InstanceSpec{GraphFamily::tree, 12, 1}),
                                 SnapshotFormat::v2_compressed);
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
    const std::string good = to_bytes(snapshot, SnapshotFormat::v2_compressed);
    // The offset table starts right after the meta block; find it by
    // encoding meta alone is fragile, so flip high bytes of several u64s
    // in the table region instead (first ~13*8 bytes after meta end are
    // offsets for n=12).  Locate meta end via the v1 encoding prefix:
    // meta is identical across codecs and is followed in v1 by cells.
    const std::size_t header_size = 8 + 4 + 8;
    const std::size_t meta_bytes = 4 + 8 + 4 + 8 + (4 + snapshot.meta.algorithm.size()) + 8 +
                                   8 + 8 + 8; // fields of encode_meta, in order
    for (int entry = 1; entry <= 3; ++entry) {
        std::string corrupted = good;
        const std::size_t offset_pos =
            header_size + meta_bytes + static_cast<std::size_t>(entry) * 8 + 6; // high byte
        corrupted[offset_pos] = static_cast<char>(0x7f);
        rehash(corrupted);
        EXPECT_THROW((void)from_bytes(corrupted), snapshot_io_error) << "entry " << entry;
    }
}

// --- mmap-backed loading ----------------------------------------------------

class SnapshotMmap : public ::testing::Test {
protected:
    [[nodiscard]] static std::string write_file(const OracleSnapshot& snapshot,
                                                SnapshotFormat codec, const std::string& name)
    {
        const std::string path = ::testing::TempDir() + name;
        save_snapshot(path, snapshot, codec);
        return path;
    }
};

TEST_F(SnapshotMmap, ServesBothCodecsBitwiseIdenticalToEagerLoading)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 40, 13});
    for (const SnapshotFormat codec : {SnapshotFormat::v1_raw, SnapshotFormat::v2_compressed}) {
        const std::string path = write_file(
            original, codec, "ccq_mmap_" + std::to_string(static_cast<int>(codec)) + ".snap");
        const MappedSnapshot mapped(path);
        EXPECT_EQ(mapped.format_version(), static_cast<std::uint32_t>(codec));
        EXPECT_EQ(mapped.meta(), original.meta);
        ASSERT_TRUE(mapped.has_routing());
        for (NodeId u = 0; u < 40; ++u)
            for (NodeId v = 0; v < 40; ++v) {
                ASSERT_EQ(mapped.distance(u, v), original.estimate->at(u, v))
                    << u << "->" << v;
                ASSERT_EQ(mapped.next_hop(u, v), original.routing->next_hop(u, v))
                    << u << "->" << v;
            }
        for (NodeId u = 0; u < 40; u += 7)
            for (NodeId v = 0; v < 40; v += 5)
                EXPECT_EQ(mapped.route(u, v), original.routing->route(u, v));
        expect_equal(original, mapped.materialize());
        std::remove(path.c_str());
    }
}

TEST_F(SnapshotMmap, ConcurrentLazyRowDecodingIsConsistent)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::clustered, 48, 5});
    const std::string path =
        write_file(original, SnapshotFormat::v2_compressed, "ccq_mmap_concurrent.snap");
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
    const std::string good = to_bytes(original, SnapshotFormat::v2_compressed);
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

TEST_F(SnapshotMmap, OutOfRangeCellsAreRejectedInBothCodecs)
{
    const OracleSnapshot forged = snapshot_with_bad_cell(kInfinity + 99);

    // v1 cells are served straight from the mapping, so the invariant
    // scan runs at open and the constructor itself must reject.
    const std::string v1 = write_file(forged, SnapshotFormat::v1_raw, "ccq_mmap_badcell_v1.snap");
    EXPECT_THROW((void)MappedSnapshot(v1), snapshot_io_error);

    // v2 rows decode lazily: the open validates structure, the poisoned
    // row is rejected on first touch, and clean rows still answer.
    const std::string v2 =
        write_file(forged, SnapshotFormat::v2_compressed, "ccq_mmap_badcell_v2.snap");
    const MappedSnapshot mapped(v2);
    EXPECT_EQ(mapped.distance(0, 7), forged.estimate->at(0, 7));
    EXPECT_THROW((void)mapped.distance(2, 7), snapshot_io_error);
    EXPECT_THROW((void)mapped.materialize(), snapshot_io_error);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

TEST_F(SnapshotMmap, QueryEngineOverMmapMatchesInMemoryEngine)
{
    const OracleSnapshot original =
        make_snapshot(InstanceSpec{GraphFamily::erdos_renyi_sparse, 32, 7});
    const std::string path =
        write_file(original, SnapshotFormat::v2_compressed, "ccq_mmap_engine.snap");
    const QueryEngine reference(original);
    const QueryEngine served(std::make_shared<const MappedSnapshot>(path));
    EXPECT_TRUE(served.is_mapped());
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

} // namespace
} // namespace ccq
