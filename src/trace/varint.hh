/**
 * @file
 * LEB128 variable-length integers and zigzag signed mapping.
 *
 * The v2 trace format packs per-record fields as unsigned varints
 * (7 payload bits per byte, high bit = continuation) and encodes
 * signed deltas — PC displacements, effective-address strides — with
 * the zigzag mapping so small magnitudes of either sign stay short.
 *
 * Decoding goes through ByteCursor, a bounds-checked view that turns
 * every malformed or truncated input into a sticky failure flag
 * instead of undefined behaviour; the fuzz layer leans on this.
 */

#ifndef ARL_TRACE_VARINT_HH
#define ARL_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace arl::trace
{

/** Append @p value to @p out as a LEB128 varint. */
inline void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Zigzag-map @p value (0,-1,1,-2,... -> 0,1,2,3,...). */
inline std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Append a signed value as zigzag + LEB128. */
inline void
putZigzag(std::string &out, std::int64_t value)
{
    putVarint(out, zigzagEncode(value));
}

/**
 * Bounds-checked reader over an immutable byte range.  All getters
 * return 0 after a failure; callers test failed() once at the end
 * (or at any convenient boundary) instead of after every field.
 */
class ByteCursor
{
  public:
    ByteCursor(const void *data, std::size_t size)
        : cur(static_cast<const std::uint8_t *>(data)),
          end(cur + size)
    {
    }

    bool failed() const { return fail; }
    bool atEnd() const { return cur == end; }
    std::size_t remaining() const { return fail ? 0 : end - cur; }

    std::uint8_t
    getByte()
    {
        if (fail || cur == end) {
            fail = true;
            return 0;
        }
        return *cur++;
    }

    std::uint64_t
    getVarint()
    {
        // Most fields fit one byte: take those without the loop.
        if (!fail && cur != end && !(*cur & 0x80))
            return *cur++;
        std::uint64_t value = 0;
        unsigned shift = 0;
        while (true) {
            if (fail || cur == end || shift >= 64) {
                fail = true;
                return 0;
            }
            std::uint8_t byte = *cur++;
            value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return value;
            shift += 7;
        }
    }

    std::int64_t getZigzag() { return zigzagDecode(getVarint()); }

    /** Copy @p size raw bytes out; zero-fills on underflow. */
    bool
    getRaw(void *out, std::size_t size)
    {
        if (fail || static_cast<std::size_t>(end - cur) < size) {
            fail = true;
            std::memset(out, 0, size);
            return false;
        }
        std::memcpy(out, cur, size);
        cur += size;
        return true;
    }

  private:
    const std::uint8_t *cur;
    const std::uint8_t *end;
    bool fail = false;
};

} // namespace arl::trace

#endif // ARL_TRACE_VARINT_HH
