// A process-wide count of C++ throws, for suites that assert a code path
// never throws. throw_counter.cpp defines __cxa_throw, which the linker
// binds every throw expression in the test binary to ahead of the C++
// runtime's own; it counts the throw and forwards to the runtime's
// definition (dlsym RTLD_NEXT). Link it into one test binary only.
#pragma once

#include <cstdint>

namespace rustbrain::throw_counter {

/// Throws since the process started.
std::uint64_t throws();

/// Throws since construction.
class Since {
  public:
    Since() : start_(throws()) {}
    [[nodiscard]] std::uint64_t count() const { return throws() - start_; }

  private:
    std::uint64_t start_;
};

}  // namespace rustbrain::throw_counter
