#include "miri/value.hpp"

#include <stdexcept>

namespace rustbrain::miri {

void Value::throw_bits_on_array() {
    throw std::logic_error("Value::bits on array value");
}

const Pointer& Value::as_ptr() const {
    if (kind_ != Kind::Ptr) {
        throw std::logic_error("Value::as_ptr on non-pointer value");
    }
    return ptr_;
}

const FnPtrVal& Value::as_fn() const {
    if (kind_ != Kind::Fn) {
        throw std::logic_error("Value::as_fn on non-fn value");
    }
    return fn_;
}

const std::vector<Value>& Value::as_array() const {
    if (kind_ != Kind::Array || !elements_) {
        throw std::logic_error("Value::as_array on non-array value");
    }
    return *elements_;
}

// Adding a field to Value changes its size: extend operator== to cover
// it, then update the size here (x86-64 libstdc++ layout).
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(Value) == 64,
              "operator==(Value, Value) must cover every field");
#endif

bool operator==(const Value& a, const Value& b) {
    const bool same_elements =
        a.elements_ == b.elements_ ||
        (a.elements_ != nullptr && b.elements_ != nullptr &&
         *a.elements_ == *b.elements_);
    return a.kind_ == b.kind_ && a.scalar_ == b.scalar_ && a.ptr_ == b.ptr_ &&
           a.fn_ == b.fn_ && same_elements;
}

std::int32_t fn_addr_to_index(std::uint64_t addr, std::size_t fn_count) {
    if (addr < kFnAddrBase) return FnPtrVal::kInvalidFn;
    const std::uint64_t delta = addr - kFnAddrBase;
    if (delta % kFnAddrStride != 0) return FnPtrVal::kInvalidFn;
    const std::uint64_t index = delta / kFnAddrStride;
    if (index >= fn_count) return FnPtrVal::kInvalidFn;
    return static_cast<std::int32_t>(index);
}


}  // namespace rustbrain::miri
