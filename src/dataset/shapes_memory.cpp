// UB shapes: alloc, danglingpointer, uninit, provenance.
#include "dataset/shape.hpp"

namespace rustbrain::dataset::shapes {

using miri::UbCategory;

namespace {

/// Store, print, then free once: the fix of every heap shape that frees
/// too early or too often. $0 pointer, $1 size, $2 stored value.
constexpr std::string_view kStoreThenFree = R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = $2;
        print_int(*slot);
        dealloc($0, $1, 8);
    }
}
)";

}  // namespace

// ---------------------------------------------------------------------------
// alloc
// ---------------------------------------------------------------------------

// The allocation is released twice.
// $0 pointer, $1 size, $2 stored value.
const Shape& double_free() {
    static const Shape shape = {
        UbCategory::Alloc, "double_free",
        FixStrategy::SemanticModification, 1, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = $2;
        print_int(*slot);
        dealloc($0, $1, 8);
        dealloc($0, $1, 8);
    }
}
)",
        kStoreThenFree,
        {{{"p", "8", "41"}, {{}}},
         {{"buf", "16", "123"}, {{}}},
         {{"mem", "24", "977"}, {{}}}}};
    return shape;
}

// Dealloc with a size other than the one allocated.
// $0 pointer, $1 size, $2 stored value, $3 wrong size.
const Shape& wrong_layout() {
    static const Shape shape = {
        UbCategory::Alloc, "wrong_layout",
        FixStrategy::SemanticModification, 1, "niii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = $2;
        print_int(*slot);
        dealloc($0, $3, 8);
    }
}
)",
        kStoreThenFree,
        {{{"p", "8", "41", "4"}, {{}}},
         {{"buf", "16", "123", "4"}, {{}}},
         {{"mem", "24", "977", "4"}, {{}}}}};
    return shape;
}

// Leak: the allocation is never released.
// $0 pointer, $1 size, $2 added constant.
const Shape& leak() {
    static const Shape shape = {
        UbCategory::Alloc, "leak",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = input(0) + $2;
        print_int(*slot);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = input(0) + $2;
        print_int(*slot);
        dealloc($0, $1, 8);
    }
}
)",
        {{{"p", "8", "41"}, {{1}, {50}}},
         {{"buf", "16", "123"}, {{1}, {50}}},
         {{"mem", "24", "977"}, {{1}, {50}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// danglingpointer
// ---------------------------------------------------------------------------

// Heap use-after-free: dealloc before the last read.
// $0 pointer, $1 size, $2 stored value.
const Shape& use_after_free() {
    static const Shape shape = {
        UbCategory::DanglingPointer, "use_after_free",
        FixStrategy::SemanticModification, 1, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1, 8);
        let slot = $0 as *mut i64;
        *slot = $2;
        dealloc($0, $1, 8);
        print_int(*slot);
    }
}
)",
        kStoreThenFree,
        {{{"p", "8", "41"}, {{}}},
         {{"buf", "16", "123"}, {{}}},
         {{"mem", "24", "977"}, {{}}}}};
    return shape;
}

// A pointer to a local escapes its scope.
// $0 pointer, $1 value, $2 local.
const Shape& scope_escape() {
    static const Shape shape = {
        UbCategory::DanglingPointer, "scope_escape",
        FixStrategy::SemanticModification, 2, "nin",
        R"(fn main() {
    let mut $0 = 0 as *const i32;
    {
        let $2 = $1;
        $0 = &$2 as *const i32;
    }
    unsafe {
        print_int(*$0 as i64);
    }
}
)",
        R"(fn main() {
    let $2 = $1;
    let mut $0 = 0 as *const i32;
    {
        $0 = &$2 as *const i32;
    }
    unsafe {
        print_int(*$0 as i64);
    }
}
)",
        {{{"p", "41", "x"}, {{}}},
         {{"buf", "123", "value"}, {{}}},
         {{"mem", "977", "data"}, {{}}}}};
    return shape;
}

// Null dereference unless the input selects the local.
// $0 pointer, $1 value, $2 local.
const Shape& null_deref() {
    static const Shape shape = {
        UbCategory::DanglingPointer, "null_deref",
        FixStrategy::AssertionGuard, 2, "nin",
        R"(fn main() {
    let $2 = $1;
    let mut $0 = 0 as *const i32;
    if input(0) > 0 {
        $0 = &$2 as *const i32;
    }
    unsafe {
        print_int(*$0 as i64);
    }
}
)",
        R"(fn main() {
    let $2 = $1;
    let mut $0 = 0 as *const i32;
    if input(0) > 0 {
        $0 = &$2 as *const i32;
    }
    if $0 as usize != 0 {
        unsafe {
            print_int(*$0 as i64);
        }
    } else {
        print_int(0 - 1);
    }
}
)",
        {{{"p", "41", "x"}, {{0}, {1}}},
         {{"buf", "123", "value"}, {{0}, {1}}},
         {{"mem", "977", "data"}, {{0}, {1}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// uninit
// ---------------------------------------------------------------------------

// Read of freshly allocated memory.
// $0 pointer, $1 added constant.
const Shape& fresh_read() {
    static const Shape shape = {
        UbCategory::Uninit, "fresh_read",
        FixStrategy::SemanticModification, 1, "ni",
        R"(fn main() {
    unsafe {
        let $0 = alloc(8, 8);
        let slot = $0 as *mut i64;
        print_int(*slot + $1);
        dealloc($0, 8, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc(8, 8);
        let slot = $0 as *mut i64;
        *slot = 0;
        print_int(*slot + $1);
        dealloc($0, 8, 8);
    }
}
)",
        {{{"p", "41"}, {{}}},
         {{"buf", "123"}, {{}}},
         {{"mem", "977"}, {{}}}}};
    return shape;
}

// Partial initialization: the init loop stops one short.
// $0 pointer, $1 element count, $2 stride.
const Shape& partial_init() {
    static const Shape shape = {
        UbCategory::Uninit, "partial_init",
        FixStrategy::SemanticModification, 2, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i < $1 - 1 {
            *offset(base, i as isize) = i * $2;
            i = i + 1;
        }
        let mut total: i64 = 0;
        i = 0;
        while i < $1 {
            total = total + *offset(base, i as isize);
            i = i + 1;
        }
        print_int(total);
        dealloc($0, $1 * 8, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i < $1 {
            *offset(base, i as isize) = i * $2;
            i = i + 1;
        }
        let mut total: i64 = 0;
        i = 0;
        while i < $1 {
            total = total + *offset(base, i as isize);
            i = i + 1;
        }
        print_int(total);
        dealloc($0, $1 * 8, 8);
    }
}
)",
        {{{"p", "4", "2"}, {{}}},
         {{"buf", "6", "2"}, {{}}},
         {{"mem", "8", "2"}, {{}}}}};
    return shape;
}

// Conditional initialization with a missing else branch.
// $0 pointer, $1 factor.
const Shape& conditional_init() {
    static const Shape shape = {
        UbCategory::Uninit, "conditional_init",
        FixStrategy::SemanticModification, 2, "ni",
        R"(fn main() {
    unsafe {
        let $0 = alloc(8, 8);
        let slot = $0 as *mut i64;
        if input(0) > 0 {
            *slot = input(0) * $1;
        }
        print_int(*slot);
        dealloc($0, 8, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc(8, 8);
        let slot = $0 as *mut i64;
        if input(0) > 0 {
            *slot = input(0) * $1;
        } else {
            *slot = 0;
        }
        print_int(*slot);
        dealloc($0, 8, 8);
    }
}
)",
        {{{"p", "41"}, {{0}, {3}}},
         {{"buf", "123"}, {{0}, {3}}},
         {{"mem", "977"}, {{0}, {3}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// provenance
// ---------------------------------------------------------------------------

// An int-to-pointer round trip loses provenance.
// $0 pointer, $1 local, $2 value.
const Shape& int_roundtrip() {
    static const Shape shape = {
        UbCategory::Provenance, "int_roundtrip",
        FixStrategy::SafeAlternative, 2, "nni",
        R"(fn main() {
    let $1 = $2;
    let addr = &$1 as *const i32 as usize;
    let $0 = addr as *const i32;
    unsafe {
        print_int(*$0 as i64);
    }
}
)",
        R"(fn main() {
    let $1 = $2;
    let $0 = &$1 as *const i32;
    unsafe {
        print_int(*$0 as i64);
    }
}
)",
        {{{"p", "x", "41"}, {{}}},
         {{"buf", "value", "123"}, {{}}},
         {{"mem", "data", "977"}, {{}}}}};
    return shape;
}

// Off-by-one pointer arithmetic walks past the end.
// $0 pointer, $1 element count.
const Shape& loop_overrun() {
    static const Shape shape = {
        UbCategory::Provenance, "loop_overrun",
        FixStrategy::SemanticModification, 1, "ni",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i <= $1 {
            *offset(base, i as isize) = i;
            i = i + 1;
        }
        print_int(*offset(base, 1));
        dealloc($0, $1 * 8, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i < $1 {
            *offset(base, i as isize) = i;
            i = i + 1;
        }
        print_int(*offset(base, 1));
        dealloc($0, $1 * 8, 8);
    }
}
)",
        {{{"p", "4"}, {{}}},
         {{"buf", "5"}, {{}}},
         {{"mem", "6"}, {{}}}}};
    return shape;
}

// An input-controlled offset can leave the allocation.
// $0 pointer, $1 element count, $2 scale.
const Shape& wild_offset() {
    static const Shape shape = {
        UbCategory::Provenance, "wild_offset",
        FixStrategy::AssertionGuard, 2, "nii",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i < $1 {
            *offset(base, i as isize) = i * $2;
            i = i + 1;
        }
        let pick = input(0);
        print_int(*offset(base, pick as isize));
        dealloc($0, $1 * 8, 8);
    }
}
)",
        R"(fn main() {
    unsafe {
        let $0 = alloc($1 * 8, 8);
        let base = $0 as *mut i64;
        let mut i: i64 = 0;
        while i < $1 {
            *offset(base, i as isize) = i * $2;
            i = i + 1;
        }
        let pick = input(0);
        if pick >= 0 && pick < $1 {
            print_int(*offset(base, pick as isize));
        } else {
            print_int(0 - 1);
        }
        dealloc($0, $1 * 8, 8);
    }
}
)",
        {{{"p", "4", "10"}, {{2}, {100}}},
         {{"buf", "5", "10"}, {{2}, {100}}},
         {{"mem", "6", "10"}, {{2}, {100}}}}};
    return shape;
}

}  // namespace rustbrain::dataset::shapes
