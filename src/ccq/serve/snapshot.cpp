#include "ccq/serve/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>

#include "ccq/common/bytes.hpp"
#include "ccq/common/parallel.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {
namespace {

constexpr std::array<char, 8> kMagic = {'C', 'C', 'Q', 'S', 'N', 'A', 'P', '\n'};
constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 8;
constexpr std::size_t kFooterBytes = 8;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64, fed in file order: hashing a payload in pieces gives the
/// same digest as hashing it whole.
class Fnv1a {
public:
    void update(std::string_view bytes) noexcept
    {
        // A local keeps the hash in a register: a store to the member
        // could alias the char input, forcing a reload per byte.
        std::uint64_t hash = hash_;
        for (const char c : bytes) {
            hash ^= static_cast<unsigned char>(c);
            hash *= kFnvPrime;
        }
        hash_ = hash;
    }

    [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = kFnvOffset;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes)
{
    Fnv1a hash;
    hash.update(bytes);
    return hash.digest();
}

// --- shared payload pieces --------------------------------------------------

void encode_meta(std::string& payload, const SnapshotMeta& meta)
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

[[nodiscard]] SnapshotMeta decode_meta(ByteReader& reader)
{
    SnapshotMeta meta;
    meta.node_count = reader.i32();
    if (meta.node_count < 0) throw snapshot_io_error("read_snapshot: negative node count");
    meta.edge_count = reader.u64();
    const std::uint32_t directed = reader.u32();
    if (directed > 1) throw snapshot_io_error("read_snapshot: malformed orientation flag");
    meta.directed = directed == 1;
    meta.max_weight = reader.i64();
    meta.algorithm = reader.str();
    meta.claimed_stretch = reader.f64();
    meta.total_rounds = reader.f64();
    meta.total_words = reader.u64();
    meta.build_seed = reader.u64();
    return meta;
}

[[nodiscard]] bool decode_flag(ByteReader& reader, const char* what)
{
    const std::uint32_t flag = reader.u32();
    if (flag > 1) throw snapshot_io_error(std::string("read_snapshot: malformed ") + what);
    return flag == 1;
}

// --- version 1: fixed-width cells -------------------------------------------
//
// Payload: meta, n^2 x i64 estimate cells row-major, u32 routing flag,
// and (when set) n^2 x i32 next hops row-major.

// Decoded-cell invariants, enforced by BOTH codecs at load time.  The
// dense engine's raw-add kernels assume every stored cell is in
// [0, kInfinity] (the no-overflow argument in matrix/kernels/), so a
// crafted or corrupted snapshot must never hand an out-of-range cell
// back to anything that might feed the engine — reject at the decode
// boundary instead.

void check_estimate_cell(std::int64_t value)
{
    if (value < 0 || value > kInfinity)
        throw snapshot_io_error("read_snapshot: estimate cell out of range");
}

void check_next_hop(std::int64_t value, int n)
{
    if (value < -1 || value >= n)
        throw snapshot_io_error("read_snapshot: next hop out of range");
}

[[nodiscard]] OracleSnapshot decode_payload_v1(std::string_view payload)
{
    ByteReader reader(payload);
    OracleSnapshot snapshot;
    snapshot.meta = decode_meta(reader);

    // node_count is untrusted (FNV-1a detects accidents, not forgery):
    // prove the payload actually holds n^2 cells before allocating n^2.
    const int n = snapshot.meta.node_count;
    const std::uint64_t cells =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
    if (cells > reader.remaining() / 8)
        throw snapshot_io_error("read_snapshot: node count exceeds payload size");
    auto estimate = std::make_shared<DistanceMatrix>(n);
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = 0; v < n; ++v) {
            const Weight value = reader.i64();
            check_estimate_cell(value);
            estimate->at(u, v) = value;
        }
    snapshot.estimate = std::move(estimate);

    if (decode_flag(reader, "routing flag")) {
        if (cells > reader.remaining() / 4)
            throw snapshot_io_error("read_snapshot: routing table exceeds payload size");
        std::vector<NodeId> next_hops(static_cast<std::size_t>(cells));
        for (NodeId& hop : next_hops) {
            hop = reader.i32();
            check_next_hop(hop, n);
        }
        snapshot.routing = std::make_shared<const RoutingTables>(n, std::move(next_hops));
    }
    if (!reader.exhausted())
        throw snapshot_io_error("read_snapshot: trailing bytes after payload");
    return snapshot;
}

// --- version 2: per-row delta+varint behind a row-offset table --------------
//
// Section layout (used for the estimate and, when present, the routing
// table):
//
//   offsets  (n+1) x u64   row i occupies blob[offsets[i], offsets[i+1])
//   blob     offsets[n] bytes of concatenated rows
//
// Each row is delta-encoded from 0: cell_j = prev + zigzag-varint, with
// prev starting at 0.  Every cell takes at least one byte, so a valid
// section's blob holds at least n bytes per row — the pre-allocation
// bound used against forged node counts.

/// A validated v2 section: absolute blob position plus row offsets.
struct V2Section {
    std::vector<std::size_t> row_offsets; ///< n+1 entries, relative to blob
    std::size_t blob_offset = 0;          ///< absolute position in the payload
};

/// Reads and validates one section's offset table, advances the reader
/// past the blob.  All bounds are proven before any n-sized allocation.
[[nodiscard]] V2Section read_v2_section(ByteReader& reader, int n, const char* what)
{
    const std::uint64_t entries = static_cast<std::uint64_t>(n) + 1;
    if (entries > reader.remaining() / 8)
        throw snapshot_io_error(std::string("read_snapshot: node count exceeds payload size (") +
                                what + " offsets)");
    V2Section section;
    section.row_offsets.resize(static_cast<std::size_t>(entries));
    for (std::size_t i = 0; i < section.row_offsets.size(); ++i) {
        const std::uint64_t offset = reader.u64();
        if (offset > reader.remaining())
            throw snapshot_io_error(std::string("read_snapshot: ") + what +
                                    " row offset exceeds payload size");
        section.row_offsets[i] = static_cast<std::size_t>(offset);
    }
    if (section.row_offsets.front() != 0)
        throw snapshot_io_error(std::string("read_snapshot: ") + what +
                                " offsets do not start at zero");
    for (std::size_t i = 0; i + 1 < section.row_offsets.size(); ++i) {
        if (section.row_offsets[i + 1] < section.row_offsets[i])
            throw snapshot_io_error(std::string("read_snapshot: ") + what +
                                    " row offsets not monotone");
        // Every cell costs at least one varint byte: a shorter row can
        // only come from a forged header, so reject before decoding.
        if (section.row_offsets[i + 1] - section.row_offsets[i] < static_cast<std::size_t>(n))
            throw snapshot_io_error(std::string("read_snapshot: ") + what +
                                    " row shorter than the node count");
    }
    const std::size_t blob_size = section.row_offsets.back();
    if (blob_size > reader.remaining())
        throw snapshot_io_error(std::string("read_snapshot: ") + what +
                                " blob exceeds payload size");
    section.blob_offset = reader.position();
    (void)reader.bytes(blob_size);
    return section;
}

/// prev + delta with wrap-around semantics: a forged delta must reach
/// the range check below as a deterministic (aliased) value, never as
/// signed-overflow UB.  Unsigned wrap + the C++20 modular narrowing
/// conversion back to int64 make the addition well-defined for every
/// input.
[[nodiscard]] std::int64_t wrapping_add(std::int64_t prev, std::int64_t delta)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                     static_cast<std::uint64_t>(delta));
}

void decode_weight_row(std::string_view row_bytes, int n, Weight* out)
{
    ByteReader reader(row_bytes);
    std::int64_t prev = 0;
    for (int v = 0; v < n; ++v) {
        const std::int64_t value = wrapping_add(prev, reader.varint_i64());
        check_estimate_cell(value);
        out[v] = value;
        prev = value;
    }
    if (!reader.exhausted())
        throw snapshot_io_error("read_snapshot: trailing bytes in estimate row");
}

void decode_hop_row(std::string_view row_bytes, int n, NodeId* out)
{
    ByteReader reader(row_bytes);
    std::int64_t prev = 0;
    for (int v = 0; v < n; ++v) {
        const std::int64_t value = wrapping_add(prev, reader.varint_i64());
        check_next_hop(value, n);
        out[v] = static_cast<NodeId>(value);
        prev = value;
    }
    if (!reader.exhausted())
        throw snapshot_io_error("read_snapshot: trailing bytes in routing row");
}

[[nodiscard]] std::string_view section_row(std::string_view payload, const V2Section& section,
                                           int u)
{
    const std::size_t begin = section.row_offsets[static_cast<std::size_t>(u)];
    const std::size_t end = section.row_offsets[static_cast<std::size_t>(u) + 1];
    return payload.substr(section.blob_offset + begin, end - begin);
}

[[nodiscard]] OracleSnapshot decode_payload_v2(std::string_view payload)
{
    ByteReader reader(payload);
    OracleSnapshot snapshot;
    snapshot.meta = decode_meta(reader);
    const int n = snapshot.meta.node_count;

    const V2Section estimate_section = read_v2_section(reader, n, "estimate");
    auto estimate = std::make_shared<DistanceMatrix>(n);
    for (NodeId u = 0; u < n; ++u)
        decode_weight_row(section_row(payload, estimate_section, u), n,
                          estimate->data() + static_cast<std::size_t>(u) *
                                                 static_cast<std::size_t>(n));
    snapshot.estimate = std::move(estimate);

    if (decode_flag(reader, "routing flag")) {
        const V2Section routing = read_v2_section(reader, n, "routing");
        std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
        for (NodeId u = 0; u < n; ++u)
            decode_hop_row(section_row(payload, routing, u), n,
                           hops.data() + static_cast<std::size_t>(u) *
                                             static_cast<std::size_t>(n));
        snapshot.routing = std::make_shared<const RoutingTables>(n, std::move(hops));
    }
    if (!reader.exhausted())
        throw snapshot_io_error("read_snapshot: trailing bytes after payload");
    return snapshot;
}

[[nodiscard]] OracleSnapshot decode_payload(std::uint32_t version, std::string_view payload)
{
    try {
        return version == format_version(SnapshotFormat::v1_raw) ? decode_payload_v1(payload)
                                                                 : decode_payload_v2(payload);
    } catch (const decode_error& error) {
        throw snapshot_io_error(std::string("read_snapshot: ") + error.what());
    }
}

// Every unknown-version rejection goes through here so the message
// always names the version that was found, not just "unsupported".
[[noreturn]] void throw_unknown_version(const char* who, std::uint32_t version)
{
    throw snapshot_io_error(std::string(who) + ": unsupported snapshot format version " +
                            std::to_string(version) + " (this build understands 1.." +
                            std::to_string(kSnapshotFormatVersion) + ")");
}

/// Writes one envelope whose payload arrives in pieces: the header
/// (the payload length must be known upfront), then each piece, hashed
/// in file order, then the checksum footer.
class EnvelopeWriter {
public:
    EnvelopeWriter(std::ostream& out, SnapshotFormat format, std::uint64_t payload_size,
                   const char* who)
        : out_(out), payload_size_(payload_size), who_(who)
    {
        std::string header;
        header.append(kMagic.data(), kMagic.size());
        put_u32(header, format_version(format));
        put_u64(header, payload_size);
        put(header);
    }

    void write(std::string_view bytes)
    {
        hash_.update(bytes);
        written_ += bytes.size();
        put(bytes);
    }

    void finish()
    {
        CCQ_CHECK(written_ == payload_size_, "EnvelopeWriter: payload size mismatch");
        std::string footer;
        put_u64(footer, hash_.digest());
        put(footer);
    }

private:
    void put(std::string_view bytes)
    {
        out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!out_) throw snapshot_io_error(std::string(who_) + ": stream write failed");
    }

    std::ostream& out_;
    std::uint64_t payload_size_;
    std::uint64_t written_ = 0;
    const char* who_;
    Fnv1a hash_;
};

// --- dense writer (v1 and v2) -----------------------------------------------
//
// The estimate and the routing table are each one section of n rows,
// read in place from the snapshot's cells.  A sizing pass computes every
// row's encoded length (fixed for v1, a sum of varint sizes for v2) in
// parallel, which yields the v2 offset table and the payload length the
// header needs.  Rows are then encoded in batches of about kBatchBytes,
// each row at its own offset, and every batch is hashed and written in
// row order — so the bytes do not depend on the thread count.  Two batch
// buffers alternate: while one is hashed and streamed, the next batch is
// encoded into the other, so at most two batches of encoded output are
// held at a time.

constexpr std::uint64_t kBatchBytes = 4 << 20;

/// value - prev with wrap-around semantics, the inverse of wrapping_add:
/// the writer trusts its caller, so a forged out-of-range cell must
/// encode (for the reader to reject) without signed-overflow UB.
[[nodiscard]] std::int64_t wrapping_sub(std::int64_t value, std::int64_t prev)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                      static_cast<std::uint64_t>(prev));
}

template <class Cell>
[[nodiscard]] std::uint64_t v2_row_size(std::span<const Cell> row)
{
    std::uint64_t bytes = 0;
    std::int64_t prev = 0;
    for (const Cell cell : row) {
        const auto value = static_cast<std::int64_t>(cell);
        bytes += varint_size(zigzag_encode(wrapping_sub(value, prev)));
        prev = value;
    }
    return bytes;
}

template <class Cell>
char* encode_v2_row(std::span<const Cell> row, char* out)
{
    std::int64_t prev = 0;
    for (const Cell cell : row) {
        const auto value = static_cast<std::int64_t>(cell);
        out = put_varint_u64(out, zigzag_encode(wrapping_sub(value, prev)));
        prev = value;
    }
    return out;
}

template <class Cell>
char* encode_v1_row(std::span<const Cell> row, char* out)
{
    for (const Cell cell : row) {
        const auto bits = static_cast<std::make_unsigned_t<Cell>>(cell);
        for (std::size_t i = 0; i < sizeof(Cell); ++i)
            *out++ = static_cast<char>((bits >> (8 * i)) & 0xff);
    }
    return out;
}

/// Byte offsets of a section's rows relative to its first row: n+1
/// entries, row u in [offsets[u], offsets[u+1]).  `row_of(u)` is a
/// span of n cells.
template <class RowOf>
[[nodiscard]] std::vector<std::uint64_t> row_offsets(int n, SnapshotFormat format, int threads,
                                                     const RowOf& row_of)
{
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    if (format == SnapshotFormat::v1_raw) {
        using Cell = typename std::invoke_result_t<const RowOf&, NodeId>::value_type;
        const std::uint64_t row_bytes = static_cast<std::uint64_t>(n) * sizeof(Cell);
        for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] = u * row_bytes;
        return offsets;
    }
    parallel_chunks(threads, 0, n, 1, [&](int begin, int end) {
        for (NodeId u = begin; u < end; ++u)
            offsets[static_cast<std::size_t>(u) + 1] = v2_row_size(row_of(u));
    });
    for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] += offsets[u - 1];
    return offsets;
}

/// Encoded bytes of a section: v2 adds its u64 offset table.
[[nodiscard]] std::uint64_t section_bytes(const std::vector<std::uint64_t>& offsets,
                                          SnapshotFormat format)
{
    return offsets.back() + (format == SnapshotFormat::v2_compressed ? 8 * offsets.size() : 0);
}

/// Rows [starts[k], starts[k+1]) form batch k: as many whole rows as
/// fit in kBatchBytes, and at least one.
[[nodiscard]] std::vector<int> batch_starts(const std::vector<std::uint64_t>& offsets)
{
    const int n = static_cast<int>(offsets.size()) - 1;
    std::vector<int> starts{0};
    for (int first = 0; first < n;) {
        int last = first + 1;
        while (last < n && offsets[static_cast<std::size_t>(last) + 1] -
                                   offsets[static_cast<std::size_t>(first)] <=
                               kBatchBytes)
            ++last;
        starts.push_back(last);
        first = last;
    }
    return starts;
}

template <class RowOf>
void write_section(EnvelopeWriter& sink, SnapshotFormat format,
                   const std::vector<std::uint64_t>& offsets, int threads, const RowOf& row_of)
{
    const bool v2 = format == SnapshotFormat::v2_compressed;
    if (v2) {
        std::string table;
        table.reserve(8 * offsets.size());
        for (const std::uint64_t offset : offsets) put_u64(table, offset);
        sink.write(table);
    }
    const std::vector<int> starts = batch_starts(offsets);
    const int batches = static_cast<int>(starts.size()) - 1;
    if (batches == 0) return;

    const auto offset_of = [&](int row) { return offsets[static_cast<std::size_t>(row)]; };
    const auto batch_begin = [&](int batch) { return starts[static_cast<std::size_t>(batch)]; };
    std::array<std::string, 2> buffers;
    // Encodes rows [begin, end) of `batch`, each at its own offset.
    const auto encode = [&](int batch, int begin, int end) {
        char* buffer = buffers[static_cast<std::size_t>(batch % 2)].data();
        const std::uint64_t base = offset_of(batch_begin(batch));
        for (NodeId u = begin; u < end; ++u) {
            char* out = buffer + (offset_of(u) - base);
            char* row_end = v2 ? encode_v2_row(row_of(u), out) : encode_v1_row(row_of(u), out);
            CCQ_CHECK(row_end == buffer + (offset_of(u + 1) - base),
                      "write_snapshot: row size mismatch");
        }
    };

    // Step k is one pool job: task 0 hashes and streams batch k-1 (so
    // FNV-1a sees the bytes in file order) while tasks 1.. encode row
    // slices of batch k into the other buffer.
    for (int step = 0; step <= batches; ++step) {
        int begin = 0;
        int rows = 0;
        if (step < batches) {
            begin = batch_begin(step);
            rows = batch_begin(step + 1) - begin;
            buffers[static_cast<std::size_t>(step % 2)].resize(
                static_cast<std::size_t>(offset_of(begin + rows) - offset_of(begin)));
        }
        const int slices = std::min(threads, rows);
        const auto slice_begin = [&](int slice) {
            return begin + static_cast<int>(static_cast<std::int64_t>(rows) * slice / slices);
        };
        ThreadPool::shared().run(1 + slices, threads, [&](int task) {
            if (task > 0)
                encode(step, slice_begin(task - 1), slice_begin(task));
            else if (step > 0)
                sink.write(buffers[static_cast<std::size_t>((step - 1) % 2)]);
        });
    }
}

/// The writer's sizing pass: the meta block, each section's row
/// offsets, and the payload length the header carries.
struct DenseLayout {
    std::string head;
    std::vector<std::uint64_t> estimate_offsets;
    std::vector<std::uint64_t> hop_offsets; ///< empty without routing
    std::uint64_t payload_size = 0;
};

/// Row u of the estimate, in place.
[[nodiscard]] std::span<const Weight> estimate_row(const DistanceMatrix& estimate, NodeId u)
{
    const auto n = static_cast<std::size_t>(estimate.size());
    return {estimate.data() + static_cast<std::size_t>(u) * n, n};
}

[[nodiscard]] DenseLayout dense_layout(const OracleSnapshot& snapshot, SnapshotFormat format,
                                       int threads)
{
    const SnapshotMeta& meta = snapshot.meta;
    const int n = meta.node_count;
    CCQ_EXPECT(snapshot.estimate != nullptr, "write_snapshot: snapshot has no estimate");
    CCQ_EXPECT(n == snapshot.estimate->size(),
               "write_snapshot: meta/estimate node count mismatch");
    CCQ_EXPECT(snapshot.routing == nullptr || snapshot.routing->size() == n,
               "write_snapshot: routing node count mismatch");
    CCQ_EXPECT(format == SnapshotFormat::v1_raw || format == SnapshotFormat::v2_compressed,
               "write_snapshot: dense snapshots are v1 or v2 (v3 is write_sparse_snapshot)");

    DenseLayout layout;
    encode_meta(layout.head, meta);
    const DistanceMatrix& estimate = *snapshot.estimate;
    layout.estimate_offsets = row_offsets(n, format, threads,
                                          [&](NodeId u) { return estimate_row(estimate, u); });
    layout.payload_size = layout.head.size() + section_bytes(layout.estimate_offsets, format) + 4;
    if (snapshot.routing != nullptr) {
        const RoutingTables& routing = *snapshot.routing;
        layout.hop_offsets =
            row_offsets(n, format, threads, [&](NodeId u) { return routing.row(u); });
        layout.payload_size += section_bytes(layout.hop_offsets, format);
    }
    return layout;
}

struct Envelope {
    std::uint32_t version = 0;
    std::string payload;
};

/// Reads magic + version + length + payload + checksum; verifies
/// everything except the version (callers gate on the formats they can
/// decode, so the error can point at the right loader).
[[nodiscard]] Envelope read_envelope(std::istream& in, const char* who)
{
    std::string header(kHeaderBytes, '\0');
    in.read(header.data(), static_cast<std::streamsize>(header.size()));
    if (static_cast<std::size_t>(in.gcount()) != header.size())
        throw snapshot_io_error(std::string(who) + ": truncated header");
    if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0)
        throw snapshot_io_error(std::string(who) + ": bad magic (not a ccq snapshot)");

    ByteReader fields(std::string_view(header).substr(kMagic.size()));
    Envelope envelope;
    envelope.version = fields.u32();
    const std::uint64_t payload_size = fields.u64();

    // The length field sits outside the checksummed payload, so it is
    // untrusted: read in bounded chunks instead of allocating it upfront,
    // so a corrupted huge length ends as "truncated payload" once the
    // stream runs dry rather than as a multi-GB allocation.
    std::string& payload = envelope.payload;
    constexpr std::uint64_t kChunk = 1 << 20;
    while (payload.size() < payload_size) {
        const std::uint64_t want = std::min<std::uint64_t>(kChunk, payload_size - payload.size());
        const std::size_t old_size = payload.size();
        payload.resize(old_size + want);
        in.read(payload.data() + old_size, static_cast<std::streamsize>(want));
        if (static_cast<std::uint64_t>(in.gcount()) != want)
            throw snapshot_io_error(std::string(who) + ": truncated payload");
    }

    std::string footer(kFooterBytes, '\0');
    in.read(footer.data(), static_cast<std::streamsize>(footer.size()));
    if (static_cast<std::size_t>(in.gcount()) != footer.size())
        throw snapshot_io_error(std::string(who) + ": truncated checksum");
    ByteReader footer_reader(footer);
    if (footer_reader.u64() != fnv1a(payload))
        throw snapshot_io_error(std::string(who) + ": checksum mismatch (corrupted snapshot)");
    return envelope;
}

} // namespace

const char* snapshot_format_name(SnapshotFormat format) noexcept
{
    switch (format) {
    case SnapshotFormat::v1_raw: return "v1-raw";
    case SnapshotFormat::v2_compressed: return "v2-compressed";
    case SnapshotFormat::v3_spanner: return "v3-spanner";
    }
    return "unknown";
}

SnapshotFormat peek_snapshot_format(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw snapshot_io_error("peek_snapshot_format: cannot open " + path);
    std::string header(kHeaderBytes, '\0');
    in.read(header.data(), static_cast<std::streamsize>(header.size()));
    if (static_cast<std::size_t>(in.gcount()) != header.size())
        throw snapshot_io_error("peek_snapshot_format: truncated header in " + path);
    if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0)
        throw snapshot_io_error("peek_snapshot_format: bad magic (not a ccq snapshot): " + path);
    ByteReader fields(std::string_view(header).substr(kMagic.size()));
    const std::uint32_t version = fields.u32();
    if (version < format_version(SnapshotFormat::v1_raw) || version > kSnapshotFormatVersion)
        throw_unknown_version("peek_snapshot_format", version);
    return static_cast<SnapshotFormat>(version);
}

OracleSnapshot OracleSnapshot::from_result(const Graph& source, const ApspResult& result,
                                           std::uint64_t build_seed,
                                           const RoutingTables* routing)
{
    CCQ_EXPECT(source.node_count() == result.estimate.size(),
               "OracleSnapshot::from_result: graph/result size mismatch");
    CCQ_EXPECT(routing == nullptr || routing->size() == source.node_count(),
               "OracleSnapshot::from_result: routing size mismatch");
    OracleSnapshot snapshot;
    snapshot.meta.node_count = source.node_count();
    snapshot.meta.edge_count = source.edge_count();
    snapshot.meta.directed = source.is_directed();
    snapshot.meta.max_weight = source.max_weight();
    snapshot.meta.algorithm = result.algorithm;
    snapshot.meta.claimed_stretch = result.claimed_stretch;
    snapshot.meta.total_rounds = result.ledger.total_rounds();
    snapshot.meta.total_words = result.ledger.total_words();
    snapshot.meta.build_seed = build_seed;
    // Borrowed: the aliasing constructor with an empty owner gives a
    // handle that points at the caller's cells and never deletes them.
    snapshot.estimate = std::shared_ptr<const DistanceMatrix>(std::shared_ptr<void>(),
                                                              &result.estimate);
    if (routing != nullptr)
        snapshot.routing = std::shared_ptr<const RoutingTables>(std::shared_ptr<void>(), routing);
    return snapshot;
}

void write_snapshot(std::ostream& out, const OracleSnapshot& snapshot, SnapshotFormat format,
                    const EngineConfig& engine)
{
    const int n = snapshot.meta.node_count;
    const int threads = engine.resolved_threads();
    obs::TraceSpan span("snapshot/write", "serve",
                        "{\"n\":" + std::to_string(n) + ",\"threads\":" +
                            std::to_string(threads) + "}");
    const DenseLayout layout = dense_layout(snapshot, format, threads);
    std::string routing_flag;
    put_u32(routing_flag, snapshot.routing != nullptr ? 1 : 0);

    EnvelopeWriter sink(out, format, layout.payload_size, "write_snapshot");
    sink.write(layout.head);
    const DistanceMatrix& estimate = *snapshot.estimate;
    write_section(sink, format, layout.estimate_offsets, threads,
                  [&](NodeId u) { return estimate_row(estimate, u); });
    sink.write(routing_flag);
    if (snapshot.routing != nullptr) {
        const RoutingTables& routing = *snapshot.routing;
        write_section(sink, format, layout.hop_offsets, threads,
                      [&](NodeId u) { return routing.row(u); });
    }
    sink.finish();
}

std::uint64_t encoded_snapshot_bytes(const OracleSnapshot& snapshot, SnapshotFormat format,
                                     const EngineConfig& engine)
{
    return kHeaderBytes + dense_layout(snapshot, format, engine.resolved_threads()).payload_size +
           kFooterBytes;
}

OracleSnapshot read_snapshot(std::istream& in)
{
    obs::TraceSpan span("snapshot/read", "serve");
    const Envelope envelope = read_envelope(in, "read_snapshot");
    if (envelope.version == format_version(SnapshotFormat::v3_spanner))
        throw snapshot_io_error(
            "read_snapshot: format version 3 stores a sparse spanner, not a dense matrix; "
            "load it with load_sparse_snapshot or open_distance_source");
    if (envelope.version != format_version(SnapshotFormat::v1_raw) &&
        envelope.version != format_version(SnapshotFormat::v2_compressed))
        throw_unknown_version("read_snapshot", envelope.version);
    return decode_payload(envelope.version, envelope.payload);
}

void save_snapshot(const std::string& path, const OracleSnapshot& snapshot, SnapshotFormat format,
                   const EngineConfig& engine)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) throw snapshot_io_error("save_snapshot: cannot open " + path);
    write_snapshot(out, snapshot, format, engine);
    out.flush();
    if (!out) throw snapshot_io_error("save_snapshot: write to " + path + " failed");
}

OracleSnapshot load_snapshot(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw snapshot_io_error("load_snapshot: cannot open " + path);
    return read_snapshot(in);
}

// --- version 3: sparse spanner edge list (CSR, delta+varint) ----------------

SparseSnapshot SparseSnapshot::from_spanner(const Graph& source, const SpannerResult& result,
                                            std::string construction, std::uint64_t build_seed)
{
    CCQ_EXPECT(source.node_count() == result.spanner.node_count(),
               "SparseSnapshot::from_spanner: graph/spanner size mismatch");
    CCQ_EXPECT(!source.is_directed(),
               "SparseSnapshot::from_spanner: spanners are for undirected graphs");
    SparseSnapshot snapshot;
    snapshot.meta.node_count = source.node_count();
    snapshot.meta.edge_count = source.edge_count();
    snapshot.meta.directed = false;
    snapshot.meta.max_weight = source.max_weight();
    snapshot.meta.algorithm = "spanner-" + construction;
    snapshot.meta.claimed_stretch = static_cast<double>(result.stretch_bound);
    snapshot.meta.build_seed = build_seed;
    snapshot.stretch_bound = result.stretch_bound;
    snapshot.parameter_k = result.parameter_k;
    snapshot.construction = std::move(construction);

    // Canonical edge list: u <= v, self-loops dropped, parallels collapsed
    // to their minimum weight, sorted by (u, v) — the order the CSR
    // encoding (strictly increasing targets per row) requires.
    std::vector<WeightedEdge> edges = result.spanner.edge_list();
    for (WeightedEdge& edge : edges)
        if (edge.u > edge.v) std::swap(edge.u, edge.v);
    std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
        if (a.u != b.u) return a.u < b.u;
        if (a.v != b.v) return a.v < b.v;
        return a.weight < b.weight;
    });
    for (const WeightedEdge& edge : edges) {
        if (edge.u == edge.v) continue;
        if (!snapshot.edges.empty() && snapshot.edges.back().u == edge.u &&
            snapshot.edges.back().v == edge.v)
            continue; // sorted by weight within (u, v): the kept one is minimal
        snapshot.edges.push_back(edge);
    }
    return snapshot;
}

Graph SparseSnapshot::spanner_graph() const
{
    Graph g(meta.node_count, Orientation::undirected);
    for (const WeightedEdge& edge : edges) g.add_edge(edge.u, edge.v, edge.weight);
    return g;
}

namespace {

[[nodiscard]] std::string encode_payload_v3(const SparseSnapshot& snapshot)
{
    const int n = snapshot.meta.node_count;
    std::string payload;
    encode_meta(payload, snapshot.meta);
    put_u32(payload, static_cast<std::uint32_t>(snapshot.stretch_bound));
    put_u32(payload, static_cast<std::uint32_t>(snapshot.parameter_k));
    put_string(payload, snapshot.construction);
    put_u64(payload, snapshot.edges.size());

    std::string blob;
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    std::size_t next = 0;
    for (int u = 0; u < n; ++u) {
        NodeId prev = static_cast<NodeId>(u);
        while (next < snapshot.edges.size() && snapshot.edges[next].u == u) {
            const WeightedEdge& edge = snapshot.edges[next];
            CCQ_EXPECT(edge.v > prev && edge.v < n && edge.weight >= 0 &&
                           edge.weight < kInfinity,
                       "write_sparse_snapshot: edge list not canonical (sorted, u < v, "
                       "finite weights)");
            put_varint_u64(blob, static_cast<std::uint64_t>(edge.v - prev));
            put_varint_u64(blob, static_cast<std::uint64_t>(edge.weight));
            prev = edge.v;
            ++next;
        }
        offsets[static_cast<std::size_t>(u) + 1] = blob.size();
    }
    CCQ_EXPECT(next == snapshot.edges.size(),
               "write_sparse_snapshot: edge endpoints out of node range");
    for (const std::uint64_t offset : offsets) put_u64(payload, offset);
    payload += blob;
    return payload;
}

[[nodiscard]] SparseSnapshot decode_payload_v3(std::string_view payload)
{
    ByteReader reader(payload);
    SparseSnapshot snapshot;
    snapshot.meta = decode_meta(reader);
    const int n = snapshot.meta.node_count;
    if (snapshot.meta.directed)
        throw snapshot_io_error("read_sparse_snapshot: spanner snapshots are undirected");

    const std::uint32_t stretch = reader.u32();
    const std::uint32_t k = reader.u32();
    if (stretch < 1 || stretch > std::numeric_limits<std::int32_t>::max() || k < 1 ||
        k > std::numeric_limits<std::int32_t>::max())
        throw snapshot_io_error("read_sparse_snapshot: stretch/k out of range");
    snapshot.stretch_bound = static_cast<int>(stretch);
    snapshot.parameter_k = static_cast<int>(k);
    snapshot.construction = reader.str();

    // edge_count is untrusted (FNV-1a detects accidents, not forgery):
    // each edge costs at least 2 blob bytes (delta + weight varints), so
    // prove the payload can hold m edges before allocating m.
    const std::uint64_t m = reader.u64();
    if (m > reader.remaining() / 2)
        throw snapshot_io_error("read_sparse_snapshot: edge count exceeds payload size");

    const std::uint64_t entries = static_cast<std::uint64_t>(n) + 1;
    if (entries > reader.remaining() / 8)
        throw snapshot_io_error(
            "read_sparse_snapshot: node count exceeds payload size (spanner offsets)");
    std::vector<std::size_t> offsets(static_cast<std::size_t>(entries));
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const std::uint64_t offset = reader.u64();
        if (offset > reader.remaining())
            throw snapshot_io_error(
                "read_sparse_snapshot: spanner row offset exceeds payload size");
        offsets[i] = static_cast<std::size_t>(offset);
    }
    if (offsets.front() != 0)
        throw snapshot_io_error("read_sparse_snapshot: spanner offsets do not start at zero");
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
        if (offsets[i + 1] < offsets[i])
            throw snapshot_io_error("read_sparse_snapshot: spanner row offsets not monotone");
    const std::size_t blob_size = offsets.back();
    if (blob_size > reader.remaining())
        throw snapshot_io_error("read_sparse_snapshot: spanner blob exceeds payload size");
    const std::size_t blob_offset = reader.position();
    (void)reader.bytes(blob_size);
    if (!reader.exhausted())
        throw snapshot_io_error("read_sparse_snapshot: trailing bytes after payload");

    snapshot.edges.reserve(static_cast<std::size_t>(m));
    for (int u = 0; u < n; ++u) {
        const std::size_t begin = offsets[static_cast<std::size_t>(u)];
        const std::size_t end = offsets[static_cast<std::size_t>(u) + 1];
        ByteReader row(payload.substr(blob_offset + begin, end - begin));
        NodeId prev = static_cast<NodeId>(u);
        while (!row.exhausted()) {
            const std::uint64_t delta = row.varint_u64();
            // delta >= 1 keeps targets strictly increasing; the sum
            // check also rejects targets past the last node.
            if (delta == 0 ||
                delta > static_cast<std::uint64_t>(n) - static_cast<std::uint64_t>(prev) - 1)
                throw snapshot_io_error("read_sparse_snapshot: spanner target out of range");
            const NodeId target = static_cast<NodeId>(prev + static_cast<NodeId>(delta));
            const std::uint64_t weight = row.varint_u64();
            if (weight >= static_cast<std::uint64_t>(kInfinity))
                throw snapshot_io_error("read_sparse_snapshot: edge weight out of range");
            if (snapshot.edges.size() >= m)
                throw snapshot_io_error(
                    "read_sparse_snapshot: more edges than the declared count");
            snapshot.edges.push_back({static_cast<NodeId>(u), target,
                                      static_cast<Weight>(weight)});
            prev = target;
        }
    }
    if (snapshot.edges.size() != m)
        throw snapshot_io_error("read_sparse_snapshot: fewer edges than the declared count");
    return snapshot;
}

} // namespace

void write_sparse_snapshot(std::ostream& out, const SparseSnapshot& snapshot)
{
    obs::TraceSpan span("snapshot/write_sparse", "serve");
    CCQ_EXPECT(snapshot.meta.node_count >= 0, "write_sparse_snapshot: negative node count");
    const std::string payload = encode_payload_v3(snapshot);
    EnvelopeWriter sink(out, SnapshotFormat::v3_spanner, payload.size(), "write_sparse_snapshot");
    sink.write(payload);
    sink.finish();
}

SparseSnapshot read_sparse_snapshot(std::istream& in)
{
    obs::TraceSpan span("snapshot/read_sparse", "serve");
    const Envelope envelope = read_envelope(in, "read_sparse_snapshot");
    if (envelope.version == format_version(SnapshotFormat::v1_raw) ||
        envelope.version == format_version(SnapshotFormat::v2_compressed))
        throw snapshot_io_error("read_sparse_snapshot: format version " +
                                std::to_string(envelope.version) +
                                " is a dense snapshot; load it with load_snapshot");
    if (envelope.version != format_version(SnapshotFormat::v3_spanner))
        throw_unknown_version("read_sparse_snapshot", envelope.version);
    try {
        return decode_payload_v3(envelope.payload);
    } catch (const decode_error& error) {
        throw snapshot_io_error(std::string("read_sparse_snapshot: ") + error.what());
    }
}

void save_sparse_snapshot(const std::string& path, const SparseSnapshot& snapshot)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) throw snapshot_io_error("save_sparse_snapshot: cannot open " + path);
    write_sparse_snapshot(out, snapshot);
    out.flush();
    if (!out) throw snapshot_io_error("save_sparse_snapshot: write to " + path + " failed");
}

SparseSnapshot load_sparse_snapshot(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw snapshot_io_error("load_sparse_snapshot: cannot open " + path);
    return read_sparse_snapshot(in);
}

// --- MappedSnapshot ---------------------------------------------------------

MappedSnapshot::MappedSnapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/mmap_open", "serve");
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw snapshot_io_error("MappedSnapshot: cannot open " + path);
    struct stat info = {};
    if (::fstat(fd, &info) != 0) {
        ::close(fd);
        throw snapshot_io_error("MappedSnapshot: cannot stat " + path);
    }
    map_size_ = static_cast<std::size_t>(info.st_size);
    file_bytes_ = static_cast<std::uint64_t>(info.st_size);
    if (map_size_ < kHeaderBytes + kFooterBytes) {
        ::close(fd);
        throw snapshot_io_error("MappedSnapshot: truncated header");
    }
    map_ = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        throw snapshot_io_error("MappedSnapshot: mmap failed for " + path);
    }

    try {
        const char* bytes = static_cast<const char*>(map_);
        if (std::memcmp(bytes, kMagic.data(), kMagic.size()) != 0)
            throw snapshot_io_error("MappedSnapshot: bad magic (not a ccq snapshot)");
        ByteReader header(std::string_view(bytes + kMagic.size(), 4 + 8));
        version_ = header.u32();
        if (version_ == ccq::format_version(SnapshotFormat::v3_spanner))
            throw snapshot_io_error(
                "MappedSnapshot: format version 3 stores a sparse spanner, not a dense "
                "matrix; load it with load_sparse_snapshot or open_distance_source");
        if (version_ != ccq::format_version(SnapshotFormat::v1_raw) &&
            version_ != ccq::format_version(SnapshotFormat::v2_compressed))
            throw_unknown_version("MappedSnapshot", version_);
        const std::uint64_t payload_size = header.u64();
        if (payload_size != map_size_ - kHeaderBytes - kFooterBytes)
            throw snapshot_io_error(
                "MappedSnapshot: payload length does not match the file size");
        payload_ = bytes + kHeaderBytes;
        payload_size_ = static_cast<std::size_t>(payload_size);

        // One sequential pass at open: afterwards every lazily decoded row
        // is covered by the verified checksum.
        ByteReader footer(std::string_view(payload_ + payload_size_, kFooterBytes));
        if (footer.u64() != fnv1a(std::string_view(payload_, payload_size_)))
            throw snapshot_io_error("MappedSnapshot: checksum mismatch (corrupted snapshot)");

        const std::string_view payload(payload_, payload_size_);
        ByteReader reader(payload);
        try {
            meta_ = decode_meta(reader);
            const int n = meta_.node_count;
            const std::uint64_t cells =
                static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n);
            if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
                if (cells > reader.remaining() / 8)
                    throw snapshot_io_error(
                        "read_snapshot: node count exceeds payload size");
                v1_estimate_offset_ = reader.position();
                // v1 cells are later read in place with no per-read
                // validation, so the load-time invariant check happens
                // here: one extra sequential pass over bytes the
                // checksum pass above already paged in.
                {
                    ByteReader cells_reader(
                        payload.substr(v1_estimate_offset_,
                                       static_cast<std::size_t>(cells) * 8));
                    for (std::uint64_t i = 0; i < cells; ++i)
                        check_estimate_cell(cells_reader.i64());
                }
                (void)reader.bytes(static_cast<std::size_t>(cells) * 8);
                has_routing_ = decode_flag(reader, "routing flag");
                if (has_routing_) {
                    if (cells > reader.remaining() / 4)
                        throw snapshot_io_error(
                            "read_snapshot: routing table exceeds payload size");
                    v1_routing_offset_ = reader.position();
                    ByteReader hops_reader(
                        payload.substr(v1_routing_offset_,
                                       static_cast<std::size_t>(cells) * 4));
                    for (std::uint64_t i = 0; i < cells; ++i)
                        check_next_hop(hops_reader.i32(), n);
                    (void)reader.bytes(static_cast<std::size_t>(cells) * 4);
                }
            } else {
                const V2Section estimate = read_v2_section(reader, n, "estimate");
                est_row_offsets_.assign(estimate.row_offsets.begin(),
                                        estimate.row_offsets.end());
                est_blob_offset_ = estimate.blob_offset;
                est_rows_ = std::make_unique<WeightRowSlot[]>(static_cast<std::size_t>(n));
                has_routing_ = decode_flag(reader, "routing flag");
                if (has_routing_) {
                    const V2Section routing = read_v2_section(reader, n, "routing");
                    hop_row_offsets_.assign(routing.row_offsets.begin(),
                                            routing.row_offsets.end());
                    hop_blob_offset_ = routing.blob_offset;
                    hop_rows_ = std::make_unique<HopRowSlot[]>(static_cast<std::size_t>(n));
                }
            }
            if (!reader.exhausted())
                throw snapshot_io_error("read_snapshot: trailing bytes after payload");
        } catch (const decode_error& error) {
            throw snapshot_io_error(std::string("MappedSnapshot: ") + error.what());
        }
    } catch (...) {
        ::munmap(map_, map_size_);
        map_ = nullptr;
        throw;
    }
}

MappedSnapshot::~MappedSnapshot()
{
    if (map_ != nullptr) ::munmap(map_, map_size_);
}

void MappedSnapshot::check_node(NodeId v, const char* what) const
{
    CCQ_EXPECT(v >= 0 && v < meta_.node_count, what);
}

const std::vector<Weight>& MappedSnapshot::estimate_row(NodeId u) const
{
    WeightRowSlot& slot = est_rows_[static_cast<std::size_t>(u)];
    std::call_once(slot.once, [&] {
        const int n = meta_.node_count;
        const std::size_t begin = est_row_offsets_[static_cast<std::size_t>(u)];
        const std::size_t end = est_row_offsets_[static_cast<std::size_t>(u) + 1];
        std::vector<Weight> cells(static_cast<std::size_t>(n));
        try {
            decode_weight_row(
                std::string_view(payload_ + est_blob_offset_ + begin, end - begin), n,
                cells.data());
        } catch (const decode_error& error) {
            throw snapshot_io_error(std::string("MappedSnapshot: ") + error.what());
        }
        slot.cells = std::move(cells);
    });
    return slot.cells;
}

const std::vector<NodeId>& MappedSnapshot::hop_row(NodeId u) const
{
    HopRowSlot& slot = hop_rows_[static_cast<std::size_t>(u)];
    std::call_once(slot.once, [&] {
        const int n = meta_.node_count;
        const std::size_t begin = hop_row_offsets_[static_cast<std::size_t>(u)];
        const std::size_t end = hop_row_offsets_[static_cast<std::size_t>(u) + 1];
        std::vector<NodeId> hops(static_cast<std::size_t>(n));
        try {
            decode_hop_row(std::string_view(payload_ + hop_blob_offset_ + begin, end - begin),
                           n, hops.data());
        } catch (const decode_error& error) {
            throw snapshot_io_error(std::string("MappedSnapshot: ") + error.what());
        }
        slot.hops = std::move(hops);
    });
    return slot.hops;
}

Weight MappedSnapshot::distance(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::distance: node out of range");
    check_node(to, "MappedSnapshot::distance: node out of range");
    if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
        const std::size_t cell = static_cast<std::size_t>(from) *
                                     static_cast<std::size_t>(meta_.node_count) +
                                 static_cast<std::size_t>(to);
        ByteReader reader(std::string_view(payload_ + v1_estimate_offset_ + cell * 8, 8));
        return reader.i64();
    }
    return estimate_row(from)[static_cast<std::size_t>(to)];
}

NodeId MappedSnapshot::next_hop(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::next_hop: node out of range");
    check_node(to, "MappedSnapshot::next_hop: node out of range");
    CCQ_EXPECT(has_routing_, "MappedSnapshot::next_hop: snapshot has no routing tables");
    if (version_ == ccq::format_version(SnapshotFormat::v1_raw)) {
        const std::size_t cell = static_cast<std::size_t>(from) *
                                     static_cast<std::size_t>(meta_.node_count) +
                                 static_cast<std::size_t>(to);
        ByteReader reader(std::string_view(payload_ + v1_routing_offset_ + cell * 4, 4));
        return reader.i32();
    }
    return hop_row(from)[static_cast<std::size_t>(to)];
}

std::vector<NodeId> MappedSnapshot::route(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::route: node out of range");
    check_node(to, "MappedSnapshot::route: node out of range");
    CCQ_EXPECT(has_routing_, "MappedSnapshot::route: snapshot has no routing tables");
    const int n = meta_.node_count;
    std::vector<NodeId> path{from};
    NodeId current = from;
    // Same hardening as RoutingTables::route: hop ranges are validated
    // at load time in both codecs, but in-range hops can still form a
    // cycle, so the walk stays hop-budgeted and ends as unreachable
    // instead of looping.
    for (int steps = 0; current != to; ++steps) {
        if (steps >= n) return {};
        const NodeId next = next_hop(current, to);
        if (next < 0 || next >= n) return {};
        path.push_back(next);
        current = next;
    }
    return path;
}

OracleSnapshot MappedSnapshot::materialize() const
{
    return decode_payload(version_, std::string_view(payload_, payload_size_));
}

} // namespace ccq
