#include "ccq/serve/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
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
    if (meta.node_count < 0) throw decode_error("negative node count");
    meta.edge_count = reader.u64();
    const std::uint32_t directed = reader.u32();
    if (directed > 1) throw decode_error("malformed orientation flag");
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
    if (flag > 1) throw decode_error(std::string("malformed ") + what);
    return flag == 1;
}

/// The version of the retired fixed-width dense codec: reserved, and
/// rejected by every reader.
constexpr std::uint32_t kRetiredVersion = 1;

// Every unknown-version rejection goes through here so the message
// always names the version that was found, not just "unsupported".
[[noreturn]] void throw_unknown_version(const std::string& who, std::uint32_t version)
{
    if (version == kRetiredVersion)
        throw snapshot_io_error(who + ": snapshot format version 1 (fixed-width dense cells) is "
                                      "retired; rebuild the snapshot with ccq_serve build, "
                                      "which writes version 2");
    throw snapshot_io_error(who + ": unsupported snapshot format version " +
                            std::to_string(version) + " (this build understands " +
                            std::to_string(format_version(SnapshotFormat::v2_compressed)) + ".." +
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

// --- dense writer (v2) ------------------------------------------------------
//
// The estimate and the routing table are each one section of n rows,
// read in place from the snapshot's cells.  A sizing pass computes every
// row's encoded length (a sum of varint sizes) in parallel, which yields
// the offset table and the payload length the header needs.  Rows are
// then encoded in batches of about kBatchBytes, each row at its own
// offset, and every batch is hashed and written in row order — so the
// bytes do not depend on the thread count.  Two batch buffers
// alternate: while one is hashed and streamed, the next batch is
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

/// Byte offsets of a section's rows relative to its first row: n+1
/// entries, row u in [offsets[u], offsets[u+1]).  `row_of(u)` is a
/// span of n cells.
template <class RowOf>
[[nodiscard]] std::vector<std::uint64_t> row_offsets(int n, int threads, const RowOf& row_of)
{
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
    parallel_chunks(threads, 0, n, 1, [&](int begin, int end) {
        for (NodeId u = begin; u < end; ++u)
            offsets[static_cast<std::size_t>(u) + 1] = v2_row_size(row_of(u));
    });
    for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] += offsets[u - 1];
    return offsets;
}

/// Encoded bytes of a section: its u64 offset table and its rows.
[[nodiscard]] std::uint64_t section_bytes(const std::vector<std::uint64_t>& offsets)
{
    return 8 * offsets.size() + offsets.back();
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
void write_section(EnvelopeWriter& sink, const std::vector<std::uint64_t>& offsets, int threads,
                   const RowOf& row_of)
{
    std::string table;
    table.reserve(8 * offsets.size());
    for (const std::uint64_t offset : offsets) put_u64(table, offset);
    sink.write(table);
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
            char* row_end = encode_v2_row(row_of(u), out);
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

[[nodiscard]] DenseLayout dense_layout(const OracleSnapshot& snapshot, int threads)
{
    const SnapshotMeta& meta = snapshot.meta;
    const int n = meta.node_count;
    CCQ_EXPECT(snapshot.estimate != nullptr, "write_snapshot: snapshot has no estimate");
    CCQ_EXPECT(n == snapshot.estimate->size(),
               "write_snapshot: meta/estimate node count mismatch");
    CCQ_EXPECT(snapshot.routing == nullptr || snapshot.routing->size() == n,
               "write_snapshot: routing node count mismatch");

    DenseLayout layout;
    encode_meta(layout.head, meta);
    const DistanceMatrix& estimate = *snapshot.estimate;
    layout.estimate_offsets =
        row_offsets(n, threads, [&](NodeId u) { return estimate_row(estimate, u); });
    layout.payload_size = layout.head.size() + section_bytes(layout.estimate_offsets) + 4;
    if (snapshot.routing != nullptr) {
        const RoutingTables& routing = *snapshot.routing;
        layout.hop_offsets = row_offsets(n, threads, [&](NodeId u) { return routing.row(u); });
        layout.payload_size += section_bytes(layout.hop_offsets);
    }
    return layout;
}

// --- the reader -------------------------------------------------------------
//
// Every snapshot file is read from one read-only mapping of the whole
// file: map_envelope checks the envelope once, parse_dense locates the
// rows of a dense file's sections, and decode_row turns one row's bytes
// into range-checked cells.  MappedSnapshot serves from these,
// load_snapshot is MappedSnapshot::materialize, and load_sparse_snapshot
// decodes the v3 payload in place.  Parse and decode failures are
// decode_errors; `decoding` rethrows them as snapshot_io_errors that
// name the file.

/// Runs `decode`, rethrowing a decode_error as a snapshot_io_error.
template <class Decode>
decltype(auto) decoding(const std::string& who, const Decode& decode)
{
    try {
        return decode();
    } catch (const decode_error& error) {
        throw snapshot_io_error(who + ": " + error.what());
    }
}

/// Checks the magic of a kHeaderBytes-byte envelope header and that its
/// version is one this build reads; returns the version.
[[nodiscard]] std::uint32_t header_version(std::string_view header, const std::string& who)
{
    if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0)
        throw snapshot_io_error(who + ": bad magic (not a ccq snapshot)");
    const std::uint32_t version = ByteReader(header.substr(kMagic.size())).u32();
    if (version < format_version(SnapshotFormat::v2_compressed) ||
        version > kSnapshotFormatVersion)
        throw_unknown_version(who, version);
    return version;
}

/// Opens `path` read-only if it is a regular file; returns the
/// descriptor and the file size.  O_NONBLOCK keeps the open of a FIFO
/// from waiting for a writer before the file is refused.
[[nodiscard]] std::pair<int, std::uint64_t> open_regular(const std::string& path,
                                                         const std::string& who)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0) throw snapshot_io_error(who + ": cannot open");
    struct stat info = {};
    if (::fstat(fd, &info) != 0 || !S_ISREG(info.st_mode)) {
        ::close(fd);
        throw snapshot_io_error(who + ": not a regular file");
    }
    return {fd, static_cast<std::uint64_t>(info.st_size)};
}

/// A snapshot file mapped whole and read-only, its envelope verified.
struct MappedFile {
    std::shared_ptr<const char> bytes; ///< the mapping; unmapped with its last handle
    std::uint64_t size = 0;
    std::string_view payload; ///< inside `bytes`
};

/// Maps `path` and checks its envelope: the magic, a version of the
/// wanted kind (dense v2 or sparse v3; the error for the other kind
/// names its loader), a length field equal to the file size less header
/// and footer, and the FNV-1a checksum.  Only regular files map.
[[nodiscard]] MappedFile map_envelope(const std::string& path, bool dense)
{
    const std::string who = (dense ? "snapshot " : "sparse snapshot ") + path;
    const auto [fd, size] = open_regular(path, who);
    void* map = MAP_FAILED;
    if (size >= kHeaderBytes + kFooterBytes)
        map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (size < kHeaderBytes + kFooterBytes)
        throw snapshot_io_error(who + ": truncated (shorter than header and checksum)");
    if (map == MAP_FAILED) throw snapshot_io_error(who + ": mmap failed");

    MappedFile file;
    const auto unmap = [size](const char* bytes) {
        ::munmap(const_cast<char*>(bytes), static_cast<std::size_t>(size));
    };
    file.bytes = std::shared_ptr<const char>(static_cast<const char*>(map), unmap);
    file.size = size;
    const std::string_view bytes(file.bytes.get(), static_cast<std::size_t>(size));
    const std::uint32_t version = header_version(bytes.substr(0, kHeaderBytes), who);
    const bool sparse = version == format_version(SnapshotFormat::v3_spanner);
    if (dense && sparse)
        throw snapshot_io_error(who + ": format version 3 stores a sparse spanner, not a dense "
                                      "matrix; load it with load_sparse_snapshot or "
                                      "open_distance_source");
    if (!dense && !sparse)
        throw snapshot_io_error(who + ": format version " + std::to_string(version) +
                                " is a dense snapshot; load it with load_snapshot");
    // The length field sits outside the checksummed payload: it must
    // match the file exactly, so truncation and trailing bytes both fail.
    const std::uint64_t payload_size = ByteReader(bytes.substr(kMagic.size() + 4, 8)).u64();
    if (payload_size != size - kHeaderBytes - kFooterBytes)
        throw snapshot_io_error(who + ": payload length does not match the file size");
    file.payload = bytes.substr(kHeaderBytes, static_cast<std::size_t>(payload_size));
    if (ByteReader(bytes.substr(kHeaderBytes + file.payload.size())).u64() != fnv1a(file.payload))
        throw snapshot_io_error(who + ": checksum mismatch (corrupted snapshot)");
    return file;
}

// --- dense layout: rows behind offset tables --------------------------------
//
// Payload: meta, the estimate section, a u32 routing flag, and (when
// set) the next-hop section.  Each section is
//
//   offsets  (n+1) x u64   row i occupies blob[offsets[i], offsets[i+1])
//   blob     offsets[n] bytes of concatenated rows
//
// where each row is delta-encoded from 0: cell_j = prev + zigzag-varint,
// with prev starting at 0.  Every cell takes at least one byte, so a
// valid v2 row holds at least n bytes — the bound used against forged
// node counts.

/// Where a dense file's rows are: the payload offsets of its estimate
/// rows and (with routing) next-hop rows, n+1 each, row u in
/// payload[rows[u], rows[u+1]).
struct DenseSections {
    SnapshotMeta meta;
    std::vector<std::size_t> estimate_rows;
    std::vector<std::size_t> hop_rows; ///< empty without routing
};

/// Reads an (n+1)-entry u64 row-offset table and moves the reader past
/// the blob behind it; returns the payload offsets of the n rows, as
/// row_bytes takes them.  The table must start at 0, never decrease and
/// stay inside the payload, and each row must hold at least
/// `min_row_bytes`.  Every bound is proven before an n-sized allocation.
[[nodiscard]] std::vector<std::size_t> parse_offset_table(ByteReader& reader, int n,
                                                          std::size_t min_row_bytes,
                                                          const char* what)
{
    const auto rows = static_cast<std::size_t>(n);
    if (rows + 1 > reader.remaining() / 8)
        throw decode_error(std::string("node count exceeds payload size (") + what +
                           " offsets)");
    std::vector<std::size_t> offsets(rows + 1);
    for (std::size_t& offset : offsets) {
        const std::uint64_t value = reader.u64();
        if (value > reader.remaining())
            throw decode_error(std::string(what) + " row offset exceeds payload size");
        offset = static_cast<std::size_t>(value);
    }
    if (offsets.front() != 0)
        throw decode_error(std::string(what) + " offsets do not start at zero");
    for (std::size_t u = 0; u < rows; ++u) {
        if (offsets[u + 1] < offsets[u])
            throw decode_error(std::string(what) + " row offsets not monotone");
        if (offsets[u + 1] - offsets[u] < min_row_bytes)
            throw decode_error(std::string(what) + " row shorter than the node count");
    }
    const std::size_t blob = reader.position();
    (void)reader.bytes(offsets.back());
    for (std::size_t& offset : offsets) offset += blob;
    return offsets;
}

/// Locates the rows of both sections.  node_count is untrusted (FNV-1a
/// detects accidents, not forgery), so parse_offset_table proves every
/// bound against the payload before an n-sized allocation; a row takes
/// at least one varint byte per cell.
[[nodiscard]] DenseSections parse_dense(std::string_view payload)
{
    ByteReader reader(payload);
    DenseSections sections;
    sections.meta = decode_meta(reader);
    const int n = sections.meta.node_count;
    const auto min_row_bytes = static_cast<std::size_t>(n);
    sections.estimate_rows = parse_offset_table(reader, n, min_row_bytes, "estimate");
    if (decode_flag(reader, "routing flag"))
        sections.hop_rows = parse_offset_table(reader, n, min_row_bytes, "routing");
    if (!reader.exhausted()) throw decode_error("trailing bytes after payload");
    return sections;
}

/// The bytes of row u of a section located by parse_dense.
[[nodiscard]] std::string_view row_bytes(std::string_view payload,
                                         const std::vector<std::size_t>& rows, NodeId u)
{
    const auto row = static_cast<std::size_t>(u);
    return payload.substr(rows[row], rows[row + 1] - rows[row]);
}

// Decoded-cell invariants, enforced before a cell is served.  The dense
// engine's raw-add kernels assume every stored cell is in [0, kInfinity]
// (the no-overflow argument in matrix/kernels/), so a crafted or
// corrupted snapshot must never hand an out-of-range cell back to
// anything that might feed the engine.  Next hops are in [-1, n).
template <class Cell>
void check_cell(std::int64_t value, int n)
{
    if constexpr (std::is_same_v<Cell, Weight>) {
        if (value < 0 || value > kInfinity) throw decode_error("estimate cell out of range");
    } else {
        if (value < -1 || value >= n) throw decode_error("next hop out of range");
    }
}

/// prev + delta with wrap-around semantics: a forged delta must reach
/// the range check as a deterministic (aliased) value, never as
/// signed-overflow UB.  Unsigned wrap + the C++20 modular narrowing
/// conversion back to int64 make the addition well-defined for every
/// input.
[[nodiscard]] std::int64_t wrapping_add(std::int64_t prev, std::int64_t delta)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                     static_cast<std::uint64_t>(delta));
}

/// The one row decoder: n range-checked cells into `out`.  A row is n
/// zigzag-varint deltas and must end exactly after the last one.
template <class Cell>
void decode_row(std::string_view bytes, int n, Cell* out)
{
    ByteReader reader(bytes);
    std::int64_t value = 0;
    for (int v = 0; v < n; ++v) {
        value = wrapping_add(value, reader.varint_i64());
        check_cell<Cell>(value, n);
        out[v] = static_cast<Cell>(value);
    }
    if (!reader.exhausted()) throw decode_error("trailing bytes in row");
}

/// A row, decoded on first touch (std::call_once: concurrent readers
/// wait for the one decode; a failed decode throws to every caller).
template <class Slot>
const auto& lazy_row(Slot& slot, std::string_view bytes, int n)
{
    std::call_once(slot.once, [&] {
        decltype(slot.cells) cells(static_cast<std::size_t>(n));
        decoding("snapshot", [&] { decode_row(bytes, n, cells.data()); });
        slot.cells = std::move(cells);
    });
    return slot.cells;
}

/// Drops the whole pages inside [begin, end) of a read-only mapping from
/// the resident set; a later read faults them back in from the file.
void release_pages(const char* begin, const char* end)
{
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t first = (reinterpret_cast<std::uintptr_t>(begin) + page - 1) / page * page;
    const std::uintptr_t last = reinterpret_cast<std::uintptr_t>(end) / page * page;
    if (first < last) (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

constexpr std::size_t kReleaseBytes = 4 << 20;

/// Decodes a whole section into `out` (row u at out + u n), front to
/// back, releasing the mapped pages behind it every few MiB: loading a
/// file holds the decoded cells and a window of the mapping, not both
/// in full.
template <class Cell>
void decode_section(std::string_view payload, const std::vector<std::size_t>& rows, int n,
                    Cell* out)
{
    std::size_t released = rows.front();
    for (NodeId u = 0; u < n; ++u) {
        decode_row(row_bytes(payload, rows, u), n,
                   out + static_cast<std::size_t>(u) * static_cast<std::size_t>(n));
        const std::size_t end = rows[static_cast<std::size_t>(u) + 1];
        if (end - released >= kReleaseBytes || u + 1 == n) {
            release_pages(payload.data() + released, payload.data() + end);
            released = end;
        }
    }
}

/// Writes `path` through a uniquely named sibling that is renamed over
/// it once complete.  A process that still maps the old file keeps its
/// inode and reads the old bytes until it unmaps them; rewriting in
/// place would truncate the file under it, and its next read would die
/// of SIGBUS.  The sibling is created with O_EXCL and mode 0666 under
/// the umask, as a plain ofstream creates files; on any failure it is
/// removed and `path` is left as it was.  No fsync: the rename keeps
/// readers safe, it does not make the file durable.
template <class Write>
void replace_file(const std::string& path, const char* who, const Write& write)
{
    struct stat info = {};
    if (::lstat(path.c_str(), &info) == 0 && !S_ISREG(info.st_mode))
        throw snapshot_io_error(std::string(who) + ": " + path +
                                " exists and is not a regular file");
    static std::atomic<std::uint64_t> next_sibling{0};
    std::string temp;
    for (int attempt = 0;; ++attempt) {
        temp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
               std::to_string(next_sibling.fetch_add(1));
        const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
        if (fd >= 0) {
            ::close(fd);
            break;
        }
        if (errno != EEXIST || attempt == 100)
            throw snapshot_io_error(std::string(who) + ": cannot create " + temp);
    }
    try {
        std::ofstream out(temp, std::ios::binary);
        if (!out) throw snapshot_io_error(std::string(who) + ": cannot open " + temp);
        write(out);
        out.close();
        if (!out) throw snapshot_io_error(std::string(who) + ": write to " + temp + " failed");
        if (std::rename(temp.c_str(), path.c_str()) != 0)
            throw snapshot_io_error(std::string(who) + ": cannot rename " + temp + " to " + path);
    } catch (...) {
        std::remove(temp.c_str());
        throw;
    }
}

} // namespace

const char* snapshot_format_name(SnapshotFormat format) noexcept
{
    switch (format) {
    case SnapshotFormat::v2_compressed: return "v2-compressed";
    case SnapshotFormat::v3_spanner: return "v3-spanner";
    }
    return "unknown";
}

SnapshotFormat peek_snapshot_format(const std::string& path)
{
    const std::string who = "peek_snapshot_format " + path;
    const auto [fd, size] = open_regular(path, who);
    std::string header(kHeaderBytes, '\0');
    const ssize_t got = size >= kHeaderBytes ? ::pread(fd, header.data(), header.size(), 0) : 0;
    ::close(fd);
    if (got != static_cast<ssize_t>(header.size()))
        throw snapshot_io_error(who + ": truncated header");
    return static_cast<SnapshotFormat>(header_version(header, who));
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
    CCQ_EXPECT(format == SnapshotFormat::v2_compressed,
               "write_snapshot: dense snapshots are v2 (v3 is write_sparse_snapshot)");
    const DenseLayout layout = dense_layout(snapshot, threads);
    std::string routing_flag;
    put_u32(routing_flag, snapshot.routing != nullptr ? 1 : 0);

    EnvelopeWriter sink(out, format, layout.payload_size, "write_snapshot");
    sink.write(layout.head);
    const DistanceMatrix& estimate = *snapshot.estimate;
    write_section(sink, layout.estimate_offsets, threads,
                  [&](NodeId u) { return estimate_row(estimate, u); });
    sink.write(routing_flag);
    if (snapshot.routing != nullptr) {
        const RoutingTables& routing = *snapshot.routing;
        write_section(sink, layout.hop_offsets, threads,
                      [&](NodeId u) { return routing.row(u); });
    }
    sink.finish();
}

void save_snapshot(const std::string& path, const OracleSnapshot& snapshot, SnapshotFormat format,
                   const EngineConfig& engine)
{
    replace_file(path, "save_snapshot",
                 [&](std::ostream& out) { write_snapshot(out, snapshot, format, engine); });
}

OracleSnapshot load_snapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/read", "serve");
    return MappedSnapshot(path).materialize();
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
        throw decode_error("spanner snapshots are undirected");

    const std::uint32_t stretch = reader.u32();
    const std::uint32_t k = reader.u32();
    if (stretch < 1 || stretch > std::numeric_limits<std::int32_t>::max() || k < 1 ||
        k > std::numeric_limits<std::int32_t>::max())
        throw decode_error("stretch/k out of range");
    snapshot.stretch_bound = static_cast<int>(stretch);
    snapshot.parameter_k = static_cast<int>(k);
    snapshot.construction = reader.str();

    // edge_count is untrusted (FNV-1a detects accidents, not forgery):
    // each edge costs at least 2 blob bytes (delta + weight varints), so
    // prove the payload can hold m edges before allocating m.
    const std::uint64_t m = reader.u64();
    if (m > reader.remaining() / 2)
        throw decode_error("edge count exceeds payload size");

    const std::vector<std::size_t> rows = parse_offset_table(reader, n, 0, "spanner");
    if (!reader.exhausted()) throw decode_error("trailing bytes after payload");

    snapshot.edges.reserve(static_cast<std::size_t>(m));
    for (int u = 0; u < n; ++u) {
        ByteReader row(row_bytes(payload, rows, u));
        NodeId prev = static_cast<NodeId>(u);
        while (!row.exhausted()) {
            const std::uint64_t delta = row.varint_u64();
            // delta >= 1 keeps targets strictly increasing; the sum
            // check also rejects targets past the last node.
            if (delta == 0 ||
                delta > static_cast<std::uint64_t>(n) - static_cast<std::uint64_t>(prev) - 1)
                throw decode_error("spanner target out of range");
            const NodeId target = static_cast<NodeId>(prev + static_cast<NodeId>(delta));
            const std::uint64_t weight = row.varint_u64();
            if (weight >= static_cast<std::uint64_t>(kInfinity))
                throw decode_error("edge weight out of range");
            if (snapshot.edges.size() >= m)
                throw decode_error("more edges than the declared count");
            snapshot.edges.push_back({static_cast<NodeId>(u), target,
                                      static_cast<Weight>(weight)});
            prev = target;
        }
    }
    if (snapshot.edges.size() != m)
        throw decode_error("fewer edges than the declared count");
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

void save_sparse_snapshot(const std::string& path, const SparseSnapshot& snapshot)
{
    replace_file(path, "save_sparse_snapshot",
                 [&](std::ostream& out) { write_sparse_snapshot(out, snapshot); });
}

SparseSnapshot load_sparse_snapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/read_sparse", "serve");
    const MappedFile file = map_envelope(path, /*dense=*/false);
    return decoding("sparse snapshot " + path, [&] { return decode_payload_v3(file.payload); });
}

// --- MappedSnapshot ---------------------------------------------------------

MappedSnapshot::MappedSnapshot(const std::string& path)
{
    obs::TraceSpan span("snapshot/mmap_open", "serve");
    MappedFile file = map_envelope(path, /*dense=*/true);
    file_ = std::move(file.bytes);
    file_bytes_ = file.size;
    payload_ = file.payload;
    DenseSections sections = decoding("snapshot " + path, [&] { return parse_dense(payload_); });
    meta_ = std::move(sections.meta);
    estimate_rows_ = std::move(sections.estimate_rows);
    hop_rows_ = std::move(sections.hop_rows);
    // Rows are decoded, and their cells checked, on first touch.
    const auto n = static_cast<std::size_t>(meta_.node_count);
    estimate_cache_ = std::make_unique<RowSlot<Weight>[]>(n);
    if (has_routing()) hop_cache_ = std::make_unique<RowSlot<NodeId>[]>(n);
}

void MappedSnapshot::check_node(NodeId v, const char* what) const
{
    CCQ_EXPECT(v >= 0 && v < meta_.node_count, what);
}

const std::vector<Weight>& MappedSnapshot::estimate_row(NodeId u) const
{
    return lazy_row(estimate_cache_[static_cast<std::size_t>(u)],
                    row_bytes(payload_, estimate_rows_, u), meta_.node_count);
}

const std::vector<NodeId>& MappedSnapshot::hop_row(NodeId u) const
{
    return lazy_row(hop_cache_[static_cast<std::size_t>(u)], row_bytes(payload_, hop_rows_, u),
                    meta_.node_count);
}

Weight MappedSnapshot::distance(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::distance: node out of range");
    check_node(to, "MappedSnapshot::distance: node out of range");
    return estimate_row(from)[static_cast<std::size_t>(to)];
}

std::span<const Weight> MappedSnapshot::row(NodeId from) const
{
    check_node(from, "MappedSnapshot::row: node out of range");
    return estimate_row(from);
}

NodeId MappedSnapshot::next_hop(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::next_hop: node out of range");
    check_node(to, "MappedSnapshot::next_hop: node out of range");
    CCQ_EXPECT(has_routing(), "MappedSnapshot::next_hop: snapshot has no routing tables");
    return hop_row(from)[static_cast<std::size_t>(to)];
}

std::vector<NodeId> MappedSnapshot::route(NodeId from, NodeId to) const
{
    check_node(from, "MappedSnapshot::route: node out of range");
    check_node(to, "MappedSnapshot::route: node out of range");
    CCQ_EXPECT(has_routing(), "MappedSnapshot::route: snapshot has no routing tables");
    return walk_next_hops(from, to, meta_.node_count,
                          [&](NodeId at) { return next_hop(at, to); });
}

OracleSnapshot MappedSnapshot::materialize() const
{
    const int n = meta_.node_count;
    OracleSnapshot snapshot;
    snapshot.meta = meta_;
    // Straight into the owned cells: the row cache is left as it is.
    auto estimate = std::make_shared<DistanceMatrix>(DistanceMatrix::uninitialized(n));
    decoding("snapshot", [&] {
        decode_section(payload_, estimate_rows_, n, estimate->data());
    });
    snapshot.estimate = std::move(estimate);
    if (has_routing()) {
        std::vector<NodeId> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
        decoding("snapshot",
                 [&] { decode_section(payload_, hop_rows_, n, hops.data()); });
        snapshot.routing = std::make_shared<const RoutingTables>(n, std::move(hops));
    }
    return snapshot;
}

} // namespace ccq
