// The __cxa_throw shim behind throw_counter.hpp. It is deliberately its own
// translation unit that includes no C++ ABI header, so its definition does
// not meet the runtime's declaration.
#include "throw_counter.hpp"

#include <dlfcn.h>

#include <atomic>
#include <cstdlib>
#include <typeinfo>

namespace rustbrain::throw_counter {
namespace {

std::atomic<std::uint64_t> g_throws{0};

}  // namespace

std::uint64_t throws() { return g_throws.load(std::memory_order_relaxed); }

}  // namespace rustbrain::throw_counter

extern "C" [[noreturn]] void __cxa_throw(void* object, std::type_info* type,
                                         void (*destructor)(void*)) {
    using Throw = void (*)(void*, std::type_info*, void (*)(void*));
    static const Throw runtime_throw =
        reinterpret_cast<Throw>(dlsym(RTLD_NEXT, "__cxa_throw"));
    rustbrain::throw_counter::g_throws.fetch_add(1, std::memory_order_relaxed);
    if (runtime_throw == nullptr) std::abort();
    runtime_throw(object, type, destructor);
    std::abort();  // the runtime's __cxa_throw does not return
}
