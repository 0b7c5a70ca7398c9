// One bump arena per program (DESIGN.md §21).
//
// Every AST node and every child list of a lang::Program lives in that
// program's AstArena, a chain of blocks the program owns. Nodes are made
// only by AstArena::make<T>(); their owning handles (NodePtr, so ExprPtr
// and StmtPtr) run the node's destructor and free nothing, and child lists
// (ArenaVector) take their buffers from the arena and never give them back.
// The arena frees its blocks, all at once, when the program dies. A node
// belongs to the program whose arena made it; a subtree moves between
// programs only by clone(arena).
//
// An arena is not thread-safe to allocate from; once built, a program's
// nodes may be read from any number of threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace rustbrain::lang {

/// The deleter of an arena node: runs the destructor, keeps the memory.
struct DestroyNode {
    template <typename T>
    void operator()(T* node) const noexcept {
        node->~T();
    }
};

/// Move-only owning handle to a node in an arena.
template <typename T>
using NodePtr = std::unique_ptr<T, DestroyNode>;

class AstArena;

/// The deleter of an arena: frees every block, the arena's own included.
struct ReleaseArena {
    void operator()(AstArena* arena) const noexcept;
};

using ArenaHandle = std::unique_ptr<AstArena, ReleaseArena>;

class AstArena {
  public:
    /// A new arena whose first block holds `first_block_bytes` of nodes
    /// and lists. The arena itself lives at the start of that block, so a
    /// program that fits costs one allocation. Later blocks start at an
    /// eighth of the first and double, up to kMaxBlockBytes.
    static ArenaHandle create(std::size_t first_block_bytes);

    /// Later blocks stop doubling here; a request larger than a block gets
    /// a block of its own.
    static constexpr std::size_t kMaxBlockBytes = std::size_t{256} << 10;

    AstArena(const AstArena&) = delete;
    AstArena& operator=(const AstArena&) = delete;

    /// `bytes` of storage aligned to `align`, a power of two no larger
    /// than alignof(std::max_align_t).
    void* allocate(std::size_t bytes, std::size_t align) {
        const std::uintptr_t at = (cursor_ + (align - 1)) & ~std::uintptr_t{align - 1};
        if (at <= limit_ && bytes <= limit_ - at) {
            used_ += at + bytes - cursor_;
            cursor_ = at + bytes;
            return reinterpret_cast<void*>(at);
        }
        return allocate_slow(bytes, align);
    }

    /// A new node of type T in this arena. Nodes that hold child lists
    /// take the arena in their constructor.
    template <typename T>
    NodePtr<T> make() {
        void* memory = allocate(sizeof(T), alignof(T));
        if constexpr (std::is_constructible_v<T, AstArena&>) {
            return NodePtr<T>(::new (memory) T(*this));
        } else {
            return NodePtr<T>(::new (memory) T());
        }
    }

    /// True when `pointer` lies in one of this arena's blocks.
    [[nodiscard]] bool owns(const void* pointer) const;
    /// Bytes handed out so far, alignment padding included.
    [[nodiscard]] std::size_t bytes_used() const { return used_; }

  private:
    struct Chunk {
        Chunk* next;
        std::size_t size;  // bytes, this header included
    };
    friend struct ReleaseArena;

    AstArena(Chunk* first, std::uintptr_t cursor, std::uintptr_t limit);
    ~AstArena() = default;
    void* allocate_slow(std::size_t bytes, std::size_t align);

    std::uintptr_t cursor_;
    std::uintptr_t limit_;
    /// Newest block first; the last one holds this object.
    Chunk* blocks_;
    /// The size the next block gets, unless one request needs more.
    std::size_t next_block_;
    std::size_t used_ = 0;
};

/// A std::allocator stand-in that takes its storage from an AstArena and
/// never frees it. Moving or swapping a list takes its arena along, so a
/// list's buffer stays in the arena its nodes came from.
template <typename T>
class ArenaAllocator {
  public:
    using value_type = T;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    /// Implicit, so a list is made from its arena: `ExprList args(arena)`.
    ArenaAllocator(AstArena& arena) noexcept : arena_(&arena) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

    T* allocate(std::size_t count) {
        return static_cast<T*>(arena_->allocate(count * sizeof(T), alignof(T)));
    }
    void deallocate(T*, std::size_t) noexcept {}

    [[nodiscard]] AstArena* arena() const noexcept { return arena_; }

    template <typename U>
    bool operator==(const ArenaAllocator<U>& other) const noexcept {
        return arena_ == other.arena();
    }
    template <typename U>
    bool operator!=(const ArenaAllocator<U>& other) const noexcept {
        return arena_ != other.arena();
    }

  private:
    AstArena* arena_;
};

/// A child list whose buffer lives in an arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace rustbrain::lang
