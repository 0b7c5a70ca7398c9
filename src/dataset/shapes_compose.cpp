// Composition shapes: structure from two UB families in one program whose
// actual UB belongs to a single declared category, so the detectors and
// engines must discriminate, not pattern-match on shape. Only Corpus
// Forge's composition generators draw them; the standard corpus holds none.
#include "dataset/shape.hpp"

namespace rustbrain::dataset::shapes {

using miri::UbCategory;

// An input-driven out-of-bounds index inside a borrow dance (declared:
// panic). The borrows are CORRECT in both programs: the shared ref's last
// use precedes the exclusive ref, so the only UB is the unchecked index.
// $0 variable, $1 array, $2 length, $3 base value, $4 element.
const Shape& borrowed_oob() {
    static const Shape shape = {
        UbCategory::Panic, "borrowed_oob",
        FixStrategy::AssertionGuard, 3, "nniii",
        R"(fn main() {
    let mut $0: i64 = $3;
    let shared = &$0;
    let $1: [i64; $2] = [$4; $2];
    let pick = input(0) as usize;
    print_int($1[pick] + *shared);
    let exclusive = &mut $0;
    *exclusive = *exclusive + 1;
    print_int($0);
}
)",
        R"(fn main() {
    let mut $0: i64 = $3;
    let shared = &$0;
    let $1: [i64; $2] = [$4; $2];
    let pick = input(0) as usize;
    if pick < $2 {
        print_int($1[pick] + *shared);
    } else {
        print_int(0 - 1);
    }
    let exclusive = &mut $0;
    *exclusive = *exclusive + 1;
    print_int($0);
}
)",
        {}};
    return shape;
}

// A heap use-after-free in main while a spawned worker runs (declared:
// danglingpointer). The thread is spawned and joined exactly once in both
// programs, so the only UB is main's use-after-free.
// $0 pointer, $1 worker, $2 size, $3 worker print, $4 stored value.
const Shape& threaded_uaf() {
    static const Shape shape = {
        UbCategory::DanglingPointer, "threaded_uaf",
        FixStrategy::SemanticModification, 3, "nniii",
        R"(fn $1() {
    print_int($3);
}
fn main() {
    let handle = spawn($1);
    unsafe {
        let $0 = alloc($2, 8);
        let slot = $0 as *mut i64;
        *slot = $4;
        dealloc($0, $2, 8);
        print_int(*slot);
    }
    join(handle);
}
)",
        R"(fn $1() {
    print_int($3);
}
fn main() {
    let handle = spawn($1);
    unsafe {
        let $0 = alloc($2, 8);
        let slot = $0 as *mut i64;
        *slot = $4;
        print_int(*slot);
        dealloc($0, $2, 8);
    }
    join(handle);
}
)",
        {}};
    return shape;
}

}  // namespace rustbrain::dataset::shapes
