// Shared binary codec primitives: little-endian fixed-width fields,
// LEB128 varints with zigzag for signed values, and a bounds-checked
// reader over a byte view.
//
// Two layers persist/transmit bytes — the snapshot codec
// (serve/snapshot.cpp) and the wire protocol (net/protocol.cpp) — and
// both must agree on endianness and reject truncated input before
// touching it, so the primitives live here once.  Readers throw
// decode_error; layers that need their own exception type catch it at
// their entry point and rethrow with context.
#ifndef CCQ_COMMON_BYTES_HPP
#define CCQ_COMMON_BYTES_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ccq {

/// Thrown by ByteReader / varint decoding on truncated or malformed
/// input.  snapshot_io_error and protocol_error wrap it with context.
class decode_error : public std::runtime_error {
public:
    explicit decode_error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

// --- little-endian fixed-width writers --------------------------------------

inline void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

inline void put_u32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_i32(std::string& out, std::int32_t v)
{
    put_u32(out, static_cast<std::uint32_t>(v));
}

inline void put_i64(std::string& out, std::int64_t v)
{
    put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::string& out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(out, bits);
}

/// u32 length prefix + raw bytes.
inline void put_string(std::string& out, std::string_view s)
{
    if (s.size() > std::numeric_limits<std::uint32_t>::max())
        throw decode_error("put_string: string too long");
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

// --- varints ----------------------------------------------------------------

/// LEB128: 7 bits per byte, high bit = continuation; at most 10 bytes.
/// Writes through a raw pointer (for encoders that size their output
/// first with varint_size) and returns one past the last byte written.
inline char* put_varint_u64(char* out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<char>(v);
    return out;
}

inline void put_varint_u64(std::string& out, std::uint64_t v)
{
    char bytes[10];
    out.append(bytes, put_varint_u64(bytes, v));
}

/// Bytes put_varint_u64 writes for `v`: ceil(significant bits / 7).
[[nodiscard]] inline std::size_t varint_size(std::uint64_t v)
{
    return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Zigzag maps small-magnitude signed values to small unsigned ones.
[[nodiscard]] inline std::uint64_t zigzag_encode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t zigzag_decode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_varint_i64(std::string& out, std::int64_t v)
{
    put_varint_u64(out, zigzag_encode(v));
}

// --- bounds-checked reader --------------------------------------------------

/// Sequential reader over a byte view; every accessor verifies the
/// bytes exist before touching them and throws decode_error otherwise.
class ByteReader {
public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    [[nodiscard]] std::uint8_t u8()
    {
        need(1);
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    [[nodiscard]] std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    [[nodiscard]] std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    [[nodiscard]] double f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    [[nodiscard]] std::string str()
    {
        const std::uint32_t len = u32();
        need(len);
        std::string s(bytes_.substr(pos_, len));
        pos_ += len;
        return s;
    }

    [[nodiscard]] std::string_view bytes(std::size_t count)
    {
        need(count);
        const std::string_view view = bytes_.substr(pos_, count);
        pos_ += count;
        return view;
    }

    [[nodiscard]] std::uint64_t varint_u64()
    {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            need(1);
            const std::uint8_t byte = static_cast<std::uint8_t>(bytes_[pos_++]);
            // The 10th byte carries bits 63..69: anything above bit 63 set
            // means the encoding does not fit a u64.
            if (shift == 63 && (byte & ~std::uint8_t{1}) != 0)
                throw decode_error("varint overflows 64 bits");
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) return v;
        }
        throw decode_error("varint longer than 10 bytes");
    }

    [[nodiscard]] std::int64_t varint_i64() { return zigzag_decode(varint_u64()); }

    [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

private:
    void need(std::size_t count) const
    {
        if (bytes_.size() - pos_ < count) throw decode_error("input ends mid-field");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace ccq

#endif // CCQ_COMMON_BYTES_HPP
