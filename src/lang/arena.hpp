// One bump arena per program (DESIGN.md §21).
//
// Every AST node, child list and name of a lang::Program lives in that
// program's AstArena, a chain of blocks the program owns. Nothing in an
// arena owns anything: a node is plain data (lang/ast.hpp asserts each one
// trivially destructible), a NodePtr is a bare handle, an ArenaVector's
// buffer is arena storage it never gives back, and a Name views identifier
// bytes copied into the arena. So the arena frees its blocks, all at once,
// when the program dies, and nothing else runs. A node belongs to the
// program whose arena made it; a subtree moves between programs only by
// clone(..., arena).
//
// An arena is not thread-safe to allocate from; once built, a program's
// nodes may be read from any number of threads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace rustbrain::lang {

class AstArena;

/// An identifier's bytes, copied into an arena by AstArena::name(); reads
/// as a std::string_view. Nothing converts a std::string into a Name, so
/// every name is made from its program's arena and none views a temporary.
class Name {
  public:
    /// The empty name.
    Name() = default;

    operator std::string_view() const noexcept { return {data_, size_}; }
    [[nodiscard]] std::string_view view() const noexcept { return {data_, size_}; }
    [[nodiscard]] const char* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    friend bool operator==(Name a, Name b) noexcept { return a.view() == b.view(); }
    friend bool operator==(Name a, std::string_view b) noexcept { return a.view() == b; }
    friend bool operator==(std::string_view a, Name b) noexcept { return a == b.view(); }
    friend bool operator!=(Name a, Name b) noexcept { return !(a == b); }
    friend bool operator!=(Name a, std::string_view b) noexcept { return !(a == b); }
    friend bool operator!=(std::string_view a, Name b) noexcept { return !(a == b); }
    friend std::string operator+(std::string text, Name name) {
        return text.append(name.data_, name.size_);
    }
    friend std::string operator+(const char* text, Name name) {
        return std::string(text).append(name.data_, name.size_);
    }
    friend std::ostream& operator<<(std::ostream& out, Name name) {
        return out << name.view();
    }

  private:
    friend class AstArena;
    Name(const char* data, std::size_t size) : data_(data), size_(size) {}

    const char* data_ = nullptr;
    std::size_t size_ = 0;
};

/// A move-only handle to a node in an arena. It frees nothing; moving it
/// nulls the source, so a node has one parent.
template <typename T>
class NodePtr {
  public:
    NodePtr() = default;
    NodePtr(std::nullptr_t) noexcept {}
    NodePtr(NodePtr&& other) noexcept : node_(other.release()) {}
    /// A handle to a derived node converts to one to its base.
    template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
    NodePtr(NodePtr<U>&& other) noexcept : node_(other.release()) {}
    NodePtr& operator=(NodePtr&& other) noexcept {
        node_ = other.release();
        return *this;
    }
    NodePtr(const NodePtr&) = delete;
    NodePtr& operator=(const NodePtr&) = delete;
    ~NodePtr() = default;

    [[nodiscard]] T* get() const noexcept { return node_; }
    T& operator*() const noexcept { return *node_; }
    T* operator->() const noexcept { return node_; }
    explicit operator bool() const noexcept { return node_ != nullptr; }

    friend bool operator==(const NodePtr& a, std::nullptr_t) noexcept { return !a; }
    friend bool operator!=(const NodePtr& a, std::nullptr_t) noexcept { return !!a; }

  private:
    friend class AstArena;
    template <typename U>
    friend class NodePtr;
    explicit NodePtr(T* node) noexcept : node_(node) {}
    T* release() noexcept { return std::exchange(node_, nullptr); }

    T* node_ = nullptr;
};

/// The deleter of an arena: frees every block, the arena's own included.
struct ReleaseArena {
    void operator()(AstArena* arena) const noexcept;
};

using ArenaHandle = std::unique_ptr<AstArena, ReleaseArena>;

class AstArena {
  public:
    /// A new arena whose first block holds `first_block_bytes` of nodes,
    /// lists and names. The arena itself lives at the start of that block,
    /// so a program that fits costs one allocation. Later blocks start at
    /// an eighth of the first and double, up to kMaxBlockBytes.
    static ArenaHandle create(std::size_t first_block_bytes);

    /// Later blocks stop doubling here; a request larger than a block gets
    /// a block of its own.
    static constexpr std::size_t kMaxBlockBytes = std::size_t{256} << 10;

    AstArena(const AstArena&) = delete;
    AstArena& operator=(const AstArena&) = delete;

    /// `bytes` of storage aligned to `align`, a power of two no larger
    /// than alignof(std::max_align_t). Throws std::bad_alloc when no block
    /// can be that large.
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
        static_assert(std::is_trivially_destructible_v<T>, "an arena never destroys a node");
        void* memory = allocate(sizeof(T), alignof(T));
        if constexpr (std::is_constructible_v<T, AstArena&>) {
            return NodePtr<T>(::new (memory) T(*this));
        } else {
            return NodePtr<T>(::new (memory) T());
        }
    }

    /// `text` copied into this arena.
    [[nodiscard]] Name name(std::string_view text) {
        if (text.empty()) return Name();
        char* bytes = static_cast<char*>(allocate(text.size(), 1));
        std::memcpy(bytes, text.data(), text.size());
        return Name(bytes, text.size());
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

/// A child list whose buffer lives in an arena. It grows by moving its
/// elements into a larger buffer from the same arena and never frees the
/// old one, so it destroys nothing and its elements must not need it.
/// Moving a list takes its buffer and leaves the source empty.
template <typename T>
class ArenaVector {
    static_assert(std::is_trivially_destructible_v<T>, "an arena list never destroys its elements");

  public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    /// Implicit, so a list is made from its arena: `ExprList args(arena)`.
    ArenaVector(AstArena& arena) noexcept : arena_(&arena) {}
    ArenaVector(ArenaVector&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0)),
          arena_(other.arena_) {}
    ArenaVector& operator=(ArenaVector&& other) noexcept {
        if (this != &other) {
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            capacity_ = std::exchange(other.capacity_, 0);
            arena_ = other.arena_;
        }
        return *this;
    }
    ArenaVector(const ArenaVector&) = delete;
    ArenaVector& operator=(const ArenaVector&) = delete;
    ~ArenaVector() = default;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    iterator begin() noexcept { return data_; }
    iterator end() noexcept { return data_ + size_; }
    const_iterator begin() const noexcept { return data_; }
    const_iterator end() const noexcept { return data_ + size_; }
    T& operator[](std::size_t index) noexcept { return data_[index]; }
    const T& operator[](std::size_t index) const noexcept { return data_[index]; }

    void reserve(std::size_t count) {
        if (count > capacity_) grow_to(count);
    }
    void push_back(T&& item) {
        if (size_ == capacity_) {
            // `item` may lie in the buffer the growth moves out of.
            T last(std::move(item));
            grow_to(next_capacity());
            ::new (static_cast<void*>(data_ + size_)) T(std::move(last));
        } else {
            ::new (static_cast<void*>(data_ + size_)) T(std::move(item));
        }
        ++size_;
    }
    /// Inserts before `at`; returns the new element.
    iterator insert(const_iterator at, T&& item) {
        const std::size_t index = static_cast<std::size_t>(at - data_);
        push_back(std::move(item));
        std::rotate(data_ + index, data_ + size_ - 1, data_ + size_);
        return data_ + index;
    }
    /// Removes the element at `at`; returns the one after it.
    iterator erase(const_iterator at) {
        T* slot = data_ + (at - data_);
        std::move(slot + 1, end(), slot);
        --size_;
        return slot;
    }

  private:
    /// The most elements a list may hold: its byte size must fit a
    /// ptrdiff_t, as for std::vector, and its count the 32-bit fields.
    static constexpr std::size_t kMaxSize =
        std::min<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max() / sizeof(T),
                              std::numeric_limits<std::uint32_t>::max());

    std::size_t next_capacity() const {
        if (capacity_ == kMaxSize) throw std::length_error("ArenaVector too long");
        return std::min(std::max<std::size_t>(std::size_t{capacity_} * 2, 1), kMaxSize);
    }
    void grow_to(std::size_t count) {
        if (count > kMaxSize) throw std::length_error("ArenaVector too long");
        T* fresh = static_cast<T*>(arena_->allocate(count * sizeof(T), alignof(T)));
        for (std::uint32_t i = 0; i < size_; ++i) {
            ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
        }
        data_ = fresh;
        capacity_ = static_cast<std::uint32_t>(count);
    }

    T* data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;
    AstArena* arena_;
};

}  // namespace rustbrain::lang
