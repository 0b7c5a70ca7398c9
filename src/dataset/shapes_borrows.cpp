// UB shapes: bothborrow, stackborrow, validity, unaligned.
#include "dataset/shape.hpp"

namespace rustbrain::dataset::shapes {

using miri::UbCategory;

// ---------------------------------------------------------------------------
// bothborrow
// ---------------------------------------------------------------------------

// A shared ref is used after a &mut was created.
// $0 variable, $1 first value, $2 second value.
const Shape& shared_then_mut() {
    static const Shape shape = {
        UbCategory::BothBorrow, "shared_then_mut",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    let exclusive = &mut $0;
    *exclusive = $2;
    print_int(*shared as i64);
    print_int($0 as i64);
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    print_int(*shared as i64);
    let exclusive = &mut $0;
    *exclusive = $2;
    print_int($0 as i64);
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// A direct write to the place while a shared ref is live.
// $0 variable, $1 first value, $2 second value.
const Shape& write_under_shared() {
    static const Shape shape = {
        UbCategory::BothBorrow, "write_under_shared",
        FixStrategy::SemanticModification, 1, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    $0 = $2;
    print_int(*shared as i64);
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    print_int(*shared as i64);
    $0 = $2;
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// A read-modify-write juggling both borrows.
// $0 variable, $1 first value.
const Shape& juggle() {
    static const Shape shape = {
        UbCategory::BothBorrow, "juggle",
        FixStrategy::SemanticModification, 3, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    let snapshot = *shared;
    let exclusive = &mut $0;
    *exclusive = snapshot + 1;
    print_int(*shared as i64);
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    let snapshot = *shared;
    let exclusive = &mut $0;
    *exclusive = snapshot + 1;
    print_int($0 as i64);
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// stackborrow
// ---------------------------------------------------------------------------

// A raw pointer invalidated by a later &mut, then written.
// $0 variable, $1 first value, $2 second value.
const Shape& raw_invalidated() {
    static const Shape shape = {
        UbCategory::StackBorrow, "raw_invalidated",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let raw = &mut $0 as *mut i32;
    let fresh = &mut $0;
    *fresh = $2;
    unsafe {
        *raw = $1;
    }
    print_int($0 as i64);
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let raw = &mut $0 as *mut i32;
    unsafe {
        *raw = $1;
    }
    let fresh = &mut $0;
    *fresh = $2;
    print_int($0 as i64);
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// A raw read after the place itself was reassigned.
// $0 variable, $1 first value, $2 second value.
const Shape& raw_after_write() {
    static const Shape shape = {
        UbCategory::StackBorrow, "raw_after_write",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let raw = &mut $0 as *mut i32;
    $0 = $2;
    unsafe {
        print_int(*raw as i64);
    }
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let raw = &mut $0 as *mut i32;
    unsafe {
        print_int(*raw as i64);
    }
    $0 = $2;
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// A write through a raw pointer derived from a shared ref.
// $0 variable, $1 first value, $2 second value.
const Shape& readonly_write() {
    static const Shape shape = {
        UbCategory::StackBorrow, "readonly_write",
        FixStrategy::SafeAlternative, 3, "nii",
        R"(fn main() {
    let mut $0 = $1;
    let shared = &$0;
    let raw = shared as *const i32 as *mut i32;
    unsafe {
        *raw = $2;
    }
    print_int($0 as i64);
}
)",
        R"(fn main() {
    let mut $0 = $1;
    let raw = &mut $0 as *mut i32;
    unsafe {
        *raw = $2;
    }
    print_int($0 as i64);
}
)",
        {{{"x", "5", "6"}, {{}}},
         {{"count", "70", "71"}, {{}}},
         {{"cell", "900", "901"}, {{}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// validity
// ---------------------------------------------------------------------------

// A stack byte outside {0, 1} punned to bool.
// $0 array, $1 invalid byte.
const Shape& bool_pun() {
    static const Shape shape = {
        UbCategory::Validity, "bool_pun",
        FixStrategy::SafeAlternative, 2, "ni",
        R"(fn main() {
    let $0: [u8; 2] = [$1, 1];
    let first = &$0 as *const u8 as *const bool;
    unsafe {
        print_bool(*first);
    }
}
)",
        R"(fn main() {
    let $0: [u8; 2] = [$1, 1];
    print_bool($0[0] != 0);
}
)",
        {{{"x", "2"}, {{}}},
         {{"count", "3"}, {{}}},
         {{"cell", "255"}, {{}}}}};
    return shape;
}

// A heap byte outside {0, 1} read as bool.
// $0 pointer, $1 invalid byte.
const Shape& heap_bool() {
    static const Shape shape = {
        UbCategory::Validity, "heap_bool",
        FixStrategy::SafeAlternative, 2, "ni",
        R"(fn main() {
    unsafe {
        let $0 = alloc(1, 1);
        *$0 = $1;
        let flag = $0 as *const bool;
        print_bool(*flag);
        dealloc($0, 1, 1);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc(1, 1);
        *$0 = $1;
        print_bool(*$0 != 0);
        dealloc($0, 1, 1);
    }
}
)",
        {{{"x", "2"}, {{}}},
         {{"count", "3"}, {{}}},
         {{"cell", "255"}, {{}}}}};
    return shape;
}

// An input-dependent byte punned to bool.
// $0 array.
const Shape& input_bool() {
    static const Shape shape = {
        UbCategory::Validity, "input_bool",
        FixStrategy::SafeAlternative, 3, "ni",
        R"(fn main() {
    let mut $0: [u8; 1] = [0];
    $0[0] = input(0) as u8;
    let p = &$0 as *const u8 as *const bool;
    unsafe {
        print_bool(*p);
    }
}
)",
        R"(fn main() {
    let mut $0: [u8; 1] = [0];
    $0[0] = input(0) as u8;
    print_bool($0[0] != 0);
}
)",
        {{{"x", "2"}, {{0}, {1}, {7}}},
         {{"count", "3"}, {{0}, {1}, {7}}},
         {{"cell", "255"}, {{0}, {1}, {7}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// unaligned
// ---------------------------------------------------------------------------

// The u8 view is offset by the element index, not the element size.
// $0 array, $1 length.
const Shape& byte_confusion() {
    static const Shape shape = {
        UbCategory::Unaligned, "byte_confusion",
        FixStrategy::SemanticModification, 2, "ni",
        R"(fn main() {
    let $0: [u32; $1] = [11; $1];
    unsafe {
        let bytes = &$0 as *const u32 as *const u8;
        let second = offset(bytes, 1) as *const u32;
        print_int(*second as i64);
    }
}
)",
        R"(fn main() {
    let $0: [u32; $1] = [11; $1];
    unsafe {
        let elems = &$0 as *const u32;
        let second = offset(elems, 1);
        print_int(*second as i64);
    }
}
)",
        {{{"x", "2"}, {{}}},
         {{"count", "3"}, {{}}},
         {{"cell", "4"}, {{}}}}};
    return shape;
}

// A wide store at a misaligned heap offset.
// $0 pointer, $1 byte skew, $2 stored value.
const Shape& wide_store() {
    static const Shape shape = {
        UbCategory::Unaligned, "wide_store",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc(16, 8);
        let word = offset($0, $1) as *mut i64;
        *word = $2;
        print_int(*word);
        dealloc($0, 16, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc(16, 8);
        let word = offset($0, 8) as *mut i64;
        *word = $2;
        print_int(*word);
        dealloc($0, 16, 8);
    }
}
)",
        {{{"x", "1", "77"}, {{}}},
         {{"count", "1", "77"}, {{}}},
         {{"cell", "1", "77"}, {{}}}}};
    return shape;
}

// A u16 read at an odd address.
// $0 array, $1 length.
const Shape& odd_u16() {
    static const Shape shape = {
        UbCategory::Unaligned, "odd_u16",
        FixStrategy::SemanticModification, 1, "ni",
        R"(fn main() {
    let $0: [u16; $1] = [9; $1];
    unsafe {
        let bytes = &$0 as *const u16 as *const u8;
        let entry = offset(bytes, 1) as *const u16;
        print_int(*entry as i64);
    }
}
)",
        R"(fn main() {
    let $0: [u16; $1] = [9; $1];
    unsafe {
        let elems = &$0 as *const u16;
        let entry = offset(elems, 1);
        print_int(*entry as i64);
    }
}
)",
        {{{"x", "2"}, {{}}},
         {{"count", "3"}, {{}}},
         {{"cell", "4"}, {{}}}}};
    return shape;
}

}  // namespace rustbrain::dataset::shapes
