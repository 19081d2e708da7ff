/**
 * @file
 * Monotonic bump allocator for per-job simulator state.
 *
 * A sweep worker constructs one core per (workload, config) job; the
 * core places all of its fixed-size hot state (the structure-of-arrays
 * ROB, the store-queue rings, the scheduling bitmaps) in a private
 * Arena.  One malloc per job replaces dozens of vector allocations,
 * the worker never touches the global allocator on the simulation hot
 * path, and the whole working set lands in one contiguous block.
 *
 * The arena only hands out trivially-destructible objects and frees
 * everything at once when it is destroyed; there is no per-object
 * free.
 */

#ifndef ARL_COMMON_ARENA_HH
#define ARL_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace arl
{

class Arena
{
  public:
    explicit Arena(std::size_t block_bytes = 256 * 1024)
        : blockBytes(block_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate and default-construct @p n objects of type T. */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        T *p = static_cast<T *>(raw(n * sizeof(T), alignof(T)));
        for (std::size_t i = 0; i < n; ++i)
            ::new (static_cast<void *>(p + i)) T();
        return p;
    }

  private:
    void *
    raw(std::size_t bytes, std::size_t align)
    {
        std::size_t misalign =
            reinterpret_cast<std::uintptr_t>(cur) & (align - 1);
        std::size_t pad = misalign ? align - misalign : 0;
        if (left < bytes + pad) {
            std::size_t need = bytes + align;
            std::size_t size = need > blockBytes ? need : blockBytes;
            blocks.push_back(std::make_unique<std::byte[]>(size));
            cur = blocks.back().get();
            left = size;
            misalign = reinterpret_cast<std::uintptr_t>(cur) & (align - 1);
            pad = misalign ? align - misalign : 0;
        }
        cur += pad;
        left -= pad;
        void *p = cur;
        cur += bytes;
        left -= bytes;
        return p;
    }

    std::vector<std::unique_ptr<std::byte[]>> blocks;
    std::byte *cur = nullptr;
    std::size_t left = 0;
    std::size_t blockBytes;
};

} // namespace arl

#endif // ARL_COMMON_ARENA_HH
