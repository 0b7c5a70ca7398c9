#include "lang/arena.hpp"

#include <algorithm>
#include <limits>
#include <new>

namespace rustbrain::lang {

namespace {

constexpr std::size_t kAlign = alignof(std::max_align_t);

constexpr std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlign - 1) & ~(kAlign - 1);
}

}  // namespace

AstArena::AstArena(Chunk* first, std::uintptr_t cursor, std::uintptr_t limit)
    : cursor_(cursor),
      limit_(limit),
      blocks_(first),
      // The first block was sized for the whole program, so what overflows
      // it is usually small: start later blocks at an eighth of it.
      next_block_(std::max<std::size_t>(first->size / 8, 256)) {}

ArenaHandle AstArena::create(std::size_t first_block_bytes) {
    const std::size_t header = round_up(sizeof(Chunk)) + round_up(sizeof(AstArena));
    const std::size_t size = header + round_up(first_block_bytes);
    char* raw = static_cast<char*>(::operator new(size));
    Chunk* chunk = ::new (raw) Chunk{nullptr, size};
    AstArena* arena = ::new (raw + round_up(sizeof(Chunk))) AstArena(
        chunk, reinterpret_cast<std::uintptr_t>(raw + header),
        reinterpret_cast<std::uintptr_t>(raw + size));
    return ArenaHandle(arena);
}

void ReleaseArena::operator()(AstArena* arena) const noexcept {
    AstArena::Chunk* chunk = arena->blocks_;
    arena->~AstArena();
    while (chunk != nullptr) {
        AstArena::Chunk* next = chunk->next;
        ::operator delete(static_cast<void*>(chunk));
        chunk = next;
    }
}

void* AstArena::allocate_slow(std::size_t bytes, std::size_t align) {
    // No block can be this large, and the sums below must not wrap.
    if (bytes > std::numeric_limits<std::size_t>::max() / 2) throw std::bad_alloc();
    const std::size_t header = round_up(sizeof(Chunk));
    const std::size_t need = header + round_up(bytes) + align;
    const std::size_t shared = next_block_;
    const bool own_block = need > shared;
    const std::size_t size = own_block ? need : shared;
    char* raw = static_cast<char*>(::operator new(size));
    Chunk* chunk = ::new (raw) Chunk{blocks_, size};
    blocks_ = chunk;
    const std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(raw + header);
    const std::uintptr_t at = (begin + (align - 1)) & ~std::uintptr_t{align - 1};
    used_ += at + bytes - begin;
    if (!own_block) {
        // What is left of the old block is abandoned; the new one takes
        // over.
        next_block_ = std::min(size * 2, kMaxBlockBytes);
        cursor_ = at + bytes;
        limit_ = reinterpret_cast<std::uintptr_t>(raw + size);
    }
    return reinterpret_cast<void*>(at);
}

bool AstArena::owns(const void* pointer) const {
    const auto address = reinterpret_cast<std::uintptr_t>(pointer);
    for (const Chunk* chunk = blocks_; chunk != nullptr; chunk = chunk->next) {
        const auto begin = reinterpret_cast<std::uintptr_t>(chunk);
        if (address >= begin && address < begin + chunk->size) return true;
    }
    return false;
}

}  // namespace rustbrain::lang
