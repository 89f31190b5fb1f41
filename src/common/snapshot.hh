/**
 * @file
 * Versioned binary snapshot framing for deterministic checkpoints.
 *
 * A snapshot is a self-describing envelope around an opaque payload:
 *
 *     offset  size  field
 *          0     8  magic "TTDASNAP"
 *          8     4  format version (little-endian u32, currently 3)
 *         12     2  endianness tag: bytes {0x02, 0x01} = little-endian
 *         14     8  payload length in bytes (little-endian u64)
 *         22     N  payload
 *       22+N     4  CRC-32 (IEEE) of the payload (little-endian u32)
 *
 * Every multi-byte primitive inside the payload is written as explicit
 * little-endian bytes, so the format is host-independent; the tag
 * exists to reject snapshots from a hypothetical writer that used
 * native big-endian encoding, with a clear error instead of garbage.
 *
 * The Reader validates the whole envelope up front (magic, version,
 * endianness, length, CRC) and bounds-checks every subsequent read, so
 * truncated or corrupted files surface as snapshot::Error — never as
 * undefined behaviour. Element counts read from the payload are never
 * trusted for allocation: callers decode elements one at a time and
 * let the bounds check fail on a lying count.
 */

#ifndef TTDA_COMMON_SNAPSHOT_HH
#define TTDA_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sim::snapshot
{

/** Any malformed snapshot — truncated, corrupted, wrong magic,
 *  unsupported version, foreign endianness — and any semantic
 *  mismatch detected by higher layers (config/program fingerprint). */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'T', 'T', 'D', 'A',
                                   'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kVersion = 3;
/** Byte sequence identifying the payload byte order; this writer only
 *  ever produces little-endian payloads. */
inline constexpr unsigned char kEndianTag[2] = {0x02, 0x01};

/** CRC-32 (IEEE 802.3, reflected) over a byte range. */
std::uint32_t crc32(const unsigned char *data, std::size_t n);

/** Accumulates a payload in memory; finish() wraps it in the
 *  envelope and writes the whole snapshot to a stream. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** Bit pattern of the double, so NaNs and signed zeros round-trip
     *  exactly. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    std::size_t
    size() const
    {
        return buf_.size();
    }

    /** Write magic + version + endian tag + length + payload + CRC. */
    void finish(std::ostream &os) const;

  private:
    std::string buf_;
};

/** Parses and validates a snapshot envelope, then serves bounds-
 *  checked primitive reads from the payload. */
class Reader
{
  public:
    /** Reads the entire envelope from the stream and validates it;
     *  throws Error on any defect. */
    explicit Reader(std::istream &is);

    std::uint8_t
    u8()
    {
        return *need(1);
    }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fail("bool out of range");
        return v != 0;
    }

    std::uint16_t
    u16()
    {
        const unsigned char *p = need(2);
        return static_cast<std::uint16_t>(
            p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
    }

    std::uint32_t
    u32()
    {
        const unsigned char *p = need(4);
        return static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (static_cast<std::uint64_t>(u32()) << 32);
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (n > remaining())
            fail("string length beyond payload");
        const unsigned char *p = need(static_cast<std::size_t>(n));
        return std::string(reinterpret_cast<const char *>(p),
                           static_cast<std::size_t>(n));
    }

    std::size_t
    remaining() const
    {
        return buf_.size() - pos_;
    }

    /** Assert the payload was consumed exactly. */
    void
    expectEnd() const
    {
        if (remaining() != 0)
            fail("trailing bytes after payload");
    }

    [[noreturn]] static void fail(const char *what);

  private:
    const unsigned char *
    need(std::size_t n)
    {
        if (n > remaining())
            fail("truncated payload");
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(buf_.data()) +
            pos_;
        pos_ += n;
        return p;
    }

    std::string buf_;
    std::size_t pos_ = 0;
};

} // namespace sim::snapshot

#endif // TTDA_COMMON_SNAPSHOT_HH
