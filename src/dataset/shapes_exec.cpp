// UB shapes: panic, func.call, func.pointer, tailcall.
#include "dataset/shape.hpp"

namespace rustbrain::dataset::shapes {

using miri::UbCategory;

// ---------------------------------------------------------------------------
// panic
// ---------------------------------------------------------------------------

// An unchecked index from input.
// $0 array, $1 length, $2 element.
const Shape& oob_index() {
    static const Shape shape = {
        UbCategory::Panic, "oob_index",
        FixStrategy::AssertionGuard, 1, "nii",
        R"(fn main() {
    let $0: [i64; $1] = [$2; $1];
    let pick = input(0) as usize;
    print_int($0[pick]);
}
)",
        R"(fn main() {
    let $0: [i64; $1] = [$2; $1];
    let pick = input(0) as usize;
    if pick < $1 {
        print_int($0[pick]);
    } else {
        print_int(0 - 1);
    }
}
)",
        {{{"table", "4", "7"}, {{1}, {9}}},
         {{"values", "5", "7"}, {{1}, {9}}},
         {{"samples", "6", "7"}, {{1}, {9}}}}};
    return shape;
}

// Division by an input that can be zero.
// $0 dividend.
const Shape& div_zero() {
    static const Shape shape = {
        UbCategory::Panic, "div_zero",
        FixStrategy::AssertionGuard, 1, "i",
        R"(fn main() {
    let total: i64 = $0;
    let parts = input(0);
    print_int(total / parts);
}
)",
        R"(fn main() {
    let total: i64 = $0;
    let parts = input(0);
    if parts != 0 {
        print_int(total / parts);
    } else {
        print_int(0 - 1);
    }
}
)",
        {{{"100"}, {{4}, {0}}},
         {{"100"}, {{4}, {0}}},
         {{"100"}, {{4}, {0}}}}};
    return shape;
}

// An i32 sum overflows; the fix widens to i64.
// $0 base.
const Shape& overflow() {
    static const Shape shape = {
        UbCategory::Panic, "overflow",
        FixStrategy::SafeAlternative, 2, "i",
        R"(fn main() {
    let base: i32 = $0;
    let extra = input(0) as i32;
    print_int((base + extra) as i64);
}
)",
        R"(fn main() {
    let base: i64 = $0;
    let extra = input(0);
    print_int(base + extra);
}
)",
        {{{"2147483000"}, {{5}, {5000}}},
         {{"2147483000"}, {{5}, {5000}}},
         {{"2147483000"}, {{5}, {5000}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// func.call
// ---------------------------------------------------------------------------

// A call through a constant bogus address.
// $0 function, $1 bogus address, $2 printed value.
const Shape& bogus_address() {
    static const Shape shape = {
        UbCategory::FuncCall, "bogus_address",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn $0() {
    print_int($2);
}
fn main() {
    unsafe {
        let handler = $1 as fn();
        handler();
    }
}
)",
        R"(fn $0() {
    print_int($2);
}
fn main() {
    $0();
}
)",
        {{{"compute", "4096", "42"}, {{}}},
         {{"transform", "65536", "42"}, {{}}},
         {{"score", "12288", "42"}, {{}}}}};
    return shape;
}

// Address arithmetic corrupts a real function address.
// $0 function, $1 address skew, $2 printed value.
const Shape& corrupted_address() {
    static const Shape shape = {
        UbCategory::FuncCall, "corrupted_address",
        FixStrategy::SemanticModification, 3, "nii",
        R"(fn $0() {
    print_int($2);
}
fn main() {
    unsafe {
        let addr = $0 as usize + $1;
        let handler = addr as fn();
        handler();
    }
}
)",
        R"(fn $0() {
    print_int($2);
}
fn main() {
    unsafe {
        let addr = $0 as usize;
        let handler = addr as fn();
        handler();
    }
}
)",
        {{{"compute", "8", "7"}, {{}}},
         {{"transform", "8", "7"}, {{}}},
         {{"score", "8", "7"}, {{}}}}};
    return shape;
}

// A data pointer called as code.
// $0 function, $1 printed value.
const Shape& data_as_code() {
    static const Shape shape = {
        UbCategory::FuncCall, "data_as_code",
        FixStrategy::SemanticModification, 2, "ni",
        R"(fn $0() {
    print_int($1);
}
fn main() {
    let slot = 1;
    unsafe {
        let addr = &slot as *const i32 as usize;
        let handler = addr as fn();
        handler();
    }
}
)",
        R"(fn $0() {
    print_int($1);
}
fn main() {
    let slot = 1;
    $0();
}
)",
        {{{"compute", "9"}, {{}}},
         {{"transform", "9"}, {{}}},
         {{"score", "9"}, {{}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// func.pointer
// ---------------------------------------------------------------------------

// An i64 function called through an i32 signature.
// $0 function, $1 factor.
const Shape& narrowed_sig() {
    static const Shape shape = {
        UbCategory::FuncPointer, "narrowed_sig",
        FixStrategy::SemanticModification, 2, "ni",
        R"(fn $0(x: i64) -> i64 {
    return x * $1;
}
fn main() {
    unsafe {
        let addr = $0 as usize;
        let f = addr as fn(i32) -> i32;
        print_int(f(10) as i64);
    }
}
)",
        R"(fn $0(x: i64) -> i64 {
    return x * $1;
}
fn main() {
    unsafe {
        let addr = $0 as usize;
        let f = addr as fn(i64) -> i64;
        print_int(f(10) as i64);
    }
}
)",
        {{{"compute", "2"}, {{}}},
         {{"transform", "3"}, {{}}},
         {{"score", "5"}, {{}}}}};
    return shape;
}

// A two-argument function called through a one-argument type.
// $0 function, $1 factor.
const Shape& wrong_arity() {
    static const Shape shape = {
        UbCategory::FuncPointer, "wrong_arity",
        FixStrategy::SemanticModification, 3, "ni",
        R"(fn $0(a: i64, b: i64) -> i64 {
    return a * $1 + b;
}
fn main() {
    unsafe {
        let addr = $0 as usize;
        let f = addr as fn(i64) -> i64;
        print_int(f(10));
    }
}
)",
        R"(fn $0(a: i64, b: i64) -> i64 {
    return a * $1 + b;
}
fn main() {
    unsafe {
        let addr = $0 as usize;
        let f = addr as fn(i64, i64) -> i64;
        print_int(f(10, 0));
    }
}
)",
        {{{"compute", "2"}, {{}}},
         {{"transform", "3"}, {{}}},
         {{"score", "5"}, {{}}}}};
    return shape;
}

// A fn pointer cast to another fn pointer signature.
// $0 function, $1 addend.
const Shape& sig_transmute() {
    static const Shape shape = {
        UbCategory::FuncPointer, "sig_transmute",
        FixStrategy::SafeAlternative, 2, "ni",
        R"(fn $0(x: i64) -> i64 {
    return x + $1;
}
fn main() {
    let typed: fn(i64) -> i64 = $0;
    unsafe {
        let twisted = typed as fn(i32) -> i32;
        print_int(twisted(1) as i64);
    }
}
)",
        R"(fn $0(x: i64) -> i64 {
    return x + $1;
}
fn main() {
    let typed: fn(i64) -> i64 = $0;
    print_int(typed(1));
}
)",
        {{{"compute", "2"}, {{}}},
         {{"transform", "3"}, {{}}},
         {{"score", "5"}, {{}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// tailcall
// ---------------------------------------------------------------------------

// become through a zero-argument cast of a one-argument fn.
// $0 function, $1 addend.
const Shape& wrong_sig() {
    static const Shape shape = {
        UbCategory::TailCall, "wrong_sig",
        FixStrategy::SemanticModification, 3, "ni",
        R"(fn $0(x: i64) -> i64 {
    return x + $1;
}
fn dispatch(n: i64) -> i64 {
    unsafe {
        let addr = $0 as usize;
        let k = addr as fn() -> i64;
        become k();
    }
}
fn main() {
    print_int(dispatch(5));
}
)",
        R"(fn $0(x: i64) -> i64 {
    return x + $1;
}
fn dispatch(n: i64) -> i64 {
    return $0(n);
}
fn main() {
    print_int(dispatch(5));
}
)",
        {{{"compute", "1"}, {{}}},
         {{"transform", "10"}, {{}}},
         {{"score", "100"}, {{}}}}};
    return shape;
}

// become to a bogus address.
// $0 function, $1 returned value, $2 bogus address.
const Shape& bogus_target() {
    static const Shape shape = {
        UbCategory::TailCall, "bogus_target",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn $0() -> i64 {
    return $1;
}
fn trampoline() -> i64 {
    unsafe {
        let k = $2 as fn() -> i64;
        become k();
    }
}
fn main() {
    print_int(trampoline());
}
)",
        R"(fn $0() -> i64 {
    return $1;
}
fn trampoline() -> i64 {
    return $0();
}
fn main() {
    print_int(trampoline());
}
)",
        {{{"compute", "1", "4096"}, {{}}},
         {{"transform", "10", "4096"}, {{}}},
         {{"score", "100", "4096"}, {{}}}}};
    return shape;
}

// A caller local escapes into the tail callee.
// $0 local value.
const Shape& local_escape() {
    static const Shape shape = {
        UbCategory::TailCall, "local_escape",
        FixStrategy::SemanticModification, 3, "i",
        R"(fn read_slot(slot: *const i64) -> i64 {
    unsafe {
        return *slot;
    }
}
fn trampoline() -> i64 {
    let local: i64 = $0;
    become read_slot(&local as *const i64);
}
fn main() {
    print_int(trampoline());
}
)",
        R"(fn read_slot(slot: *const i64) -> i64 {
    unsafe {
        return *slot;
    }
}
fn trampoline() -> i64 {
    let local: i64 = $0;
    return read_slot(&local as *const i64);
}
fn main() {
    print_int(trampoline());
}
)",
        {{{"1"}, {{}}},
         {{"10"}, {{}}},
         {{"100"}, {{}}}}};
    return shape;
}

}  // namespace rustbrain::dataset::shapes
