// UB shapes: datarace, concurrency.
#include "dataset/shape.hpp"

namespace rustbrain::dataset::shapes {

using miri::UbCategory;

// ---------------------------------------------------------------------------
// datarace
// ---------------------------------------------------------------------------

// Two workers increment a static mut without sync.
// $0 static, $1 worker, $2 step.
const Shape& counter() {
    static const Shape shape = {
        UbCategory::DataRace, "counter",
        FixStrategy::SafeAlternative, 2, "nni",
        R"(static mut $0: i64 = 0;
fn $1() {
    unsafe {
        $0 = $0 + $2;
    }
}
fn main() {
    let first = spawn($1);
    let second = spawn($1);
    join(first);
    join(second);
    unsafe {
        print_int($0);
    }
}
)",
        R"(static mut $0: i64 = 0;
fn $1() {
    unsafe {
        let cell = &mut $0 as *mut i64;
        let old = atomic_fetch_add(cell, $2);
    }
}
fn main() {
    let first = spawn($1);
    let second = spawn($1);
    join(first);
    join(second);
    unsafe {
        let cell = &mut $0 as *mut i64;
        print_int(atomic_load(cell as *const i64));
    }
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

// A writer/reader pair on a shared flag.
// $0 static, $2 stored value.
const Shape& flag() {
    static const Shape shape = {
        UbCategory::DataRace, "flag",
        FixStrategy::SafeAlternative, 2, "nni",
        R"(static mut $0: i64 = 0;
fn set_flag() {
    unsafe {
        $0 = $2;
    }
}
fn read_flag() {
    unsafe {
        print_int($0);
    }
}
fn main() {
    let writer = spawn(set_flag);
    let reader = spawn(read_flag);
    join(writer);
    join(reader);
}
)",
        R"(static mut $0: i64 = 0;
fn set_flag() {
    unsafe {
        let cell = &mut $0 as *mut i64;
        atomic_store(cell, $2);
    }
}
fn read_flag() {
    unsafe {
        let cell = &mut $0 as *mut i64;
        print_int(atomic_load(cell as *const i64));
    }
}
fn main() {
    let writer = spawn(set_flag);
    let reader = spawn(read_flag);
    join(writer);
    join(reader);
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

// main races with a worker it joins too late.
// $0 static, $1 worker, $2 step.
const Shape& late_join() {
    static const Shape shape = {
        UbCategory::DataRace, "late_join",
        FixStrategy::SemanticModification, 3, "nni",
        R"(static mut $0: i64 = 0;
fn $1() {
    unsafe {
        $0 = $0 + $2;
    }
}
fn main() {
    let handle = spawn($1);
    unsafe {
        $0 = $0 + 1;
    }
    join(handle);
    unsafe {
        print_int($0);
    }
}
)",
        R"(static mut $0: i64 = 0;
fn $1() {
    unsafe {
        $0 = $0 + $2;
    }
}
fn main() {
    let handle = spawn($1);
    join(handle);
    unsafe {
        $0 = $0 + 1;
    }
    unsafe {
        print_int($0);
    }
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

// ---------------------------------------------------------------------------
// concurrency
// ---------------------------------------------------------------------------

// A spawned thread is never joined.
// $1 worker, $2 printed value.
const Shape& thread_leak() {
    static const Shape shape = {
        UbCategory::Concurrency, "thread_leak",
        FixStrategy::SemanticModification, 1, "nni",
        R"(fn $1() {
    print_int($2);
}
fn main() {
    let handle = spawn($1);
    print_int(0);
}
)",
        R"(fn $1() {
    print_int($2);
}
fn main() {
    let handle = spawn($1);
    join(handle);
    print_int(0);
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

// The same handle is joined twice.
// $1 worker, $2 printed value.
const Shape& double_join() {
    static const Shape shape = {
        UbCategory::Concurrency, "double_join",
        FixStrategy::SemanticModification, 1, "nni",
        R"(fn $1() {
    print_int($2);
}
fn main() {
    let handle = spawn($1);
    join(handle);
    join(handle);
}
)",
        R"(fn $1() {
    print_int($2);
}
fn main() {
    let handle = spawn($1);
    join(handle);
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

// A held mutex is locked again (it should have been unlocked).
// $0 static, $2 step.
const Shape& relock() {
    static const Shape shape = {
        UbCategory::Concurrency, "relock",
        FixStrategy::SemanticModification, 2, "nni",
        R"(static mut LOCK: i64 = 0;
static mut $0: i64 = 0;
fn main() {
    unsafe {
        LOCK = mutex_new();
        mutex_lock(LOCK);
        $0 = $0 + $2;
        mutex_lock(LOCK);
        print_int($0);
        mutex_unlock(LOCK);
    }
}
)",
        R"(static mut LOCK: i64 = 0;
static mut $0: i64 = 0;
fn main() {
    unsafe {
        LOCK = mutex_new();
        mutex_lock(LOCK);
        $0 = $0 + $2;
        mutex_unlock(LOCK);
        mutex_lock(LOCK);
        print_int($0);
        mutex_unlock(LOCK);
    }
}
)",
        {{{"COUNTER", "worker", "1"}, {{}}},
         {{"TOTAL", "tally", "5"}, {{}}},
         {{"HITS", "bump", "9"}, {{}}}}};
    return shape;
}

}  // namespace rustbrain::dataset::shapes
