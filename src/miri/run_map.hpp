// Run-length containers for MiriLite's per-byte memory state (DESIGN.md
// §23): InlineVec keeps its first few elements inside the object, and
// RunMap stores a value per byte offset as runs of equal values, in the
// canonical form Miri's RangeMap keeps (adjacent equal runs merged), so a
// uniform allocation of any size is one inline run and equal maps compare
// equal run by run.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rustbrain::miri {

/// A vector whose first N elements live inline. Past N it moves every
/// element to the heap and stays there, even if it shrinks again (a map
/// that split once tends to split again). Unused inline slots hold default
/// values.
template <typename T, std::size_t N>
class InlineVec {
  public:
    InlineVec() = default;
    explicit InlineVec(T first) : size_(1) { inline_[0] = std::move(first); }

    [[nodiscard]] std::size_t size() const {
        return spilled() ? heap_.size() : size_;
    }
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] T* data() { return spilled() ? heap_.data() : inline_.data(); }
    [[nodiscard]] const T* data() const {
        return spilled() ? heap_.data() : inline_.data();
    }
    [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
    [[nodiscard]] const T* begin() const { return data(); }
    [[nodiscard]] const T* end() const { return data() + size(); }

    void insert(std::size_t at, T value) {
        if (spilled()) {
            heap_.insert(heap_.begin() + static_cast<std::ptrdiff_t>(at),
                         std::move(value));
        } else if (size_ < N) {
            std::move_backward(inline_.begin() + at, inline_.begin() + size_,
                               inline_.begin() + size_ + 1);
            inline_[at] = std::move(value);
            ++size_;
        } else {
            heap_.reserve(N + 2);  // a split adds at most two runs
            for (T& element : inline_) heap_.push_back(std::move(element));
            inline_ = {};
            spilled_ = true;
            heap_.insert(heap_.begin() + static_cast<std::ptrdiff_t>(at),
                         std::move(value));
        }
    }
    /// Removes [first, last).
    void erase(std::size_t first, std::size_t last) {
        if (first >= last) return;
        if (spilled()) {
            heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(first),
                        heap_.begin() + static_cast<std::ptrdiff_t>(last));
            return;
        }
        std::move(inline_.begin() + last, inline_.begin() + size_,
                  inline_.begin() + first);
        const std::size_t removed = last - first;
        for (std::size_t i = size_ - removed; i < size_; ++i) inline_[i] = T{};
        size_ -= static_cast<std::uint32_t>(removed);
    }

    /// Heap bytes held beyond the object itself.
    [[nodiscard]] std::size_t heap_bytes() const {
        return heap_.capacity() * sizeof(T);
    }

    /// Element-wise: where the elements live does not matter.
    friend bool operator==(const InlineVec& a, const InlineVec& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    [[nodiscard]] bool spilled() const { return spilled_; }

    std::array<T, N> inline_{};
    std::uint32_t size_ = 0;  // while not spilled
    bool spilled_ = false;
    std::vector<T> heap_;
};

/// What a RunMap::update visitor decides for one run.
enum class RunVerdict { Keep, Change, Fail };

/// One value per offset of [0, size) as maximal runs of equal values. The
/// map does not store `size`; the calls that need a run's end take it.
template <typename T, std::size_t N = 1>
class RunMap {
  public:
    struct Run {
        std::uint64_t start = 0;
        T value{};

        friend bool operator==(const Run& a, const Run& b) {
            return a.start == b.start && a.value == b.value;
        }
    };

    /// Every offset holds `value`.
    explicit RunMap(T value = T{}) : runs_(Run{0, std::move(value)}) {}

    /// Every offset holds `value` again; spilled storage is kept for reuse.
    void reset(const T& value) {
        runs_.erase(1, runs_.size());
        runs_[0].value = value;
    }

    [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
    [[nodiscard]] const Run& run(std::size_t i) const { return runs_[i]; }
    [[nodiscard]] std::uint64_t run_end(std::size_t i, std::uint64_t size) const {
        return i + 1 < runs_.size() ? runs_[i + 1].start : size;
    }
    /// The index of the run holding `offset`.
    [[nodiscard]] std::size_t find(std::uint64_t offset) const {
        if (runs_.size() == 1) return 0;
        const Run* it = std::upper_bound(
            runs_.begin(), runs_.end(), offset,
            [](std::uint64_t at, const Run& run) { return at < run.start; });
        return static_cast<std::size_t>(it - runs_.begin()) - 1;
    }

    /// Visits the runs over [offset, offset + len) in offset order.
    /// `verdict(value)` decides each: Keep leaves it, Change splits the
    /// part inside the range off and applies `change` to it, Fail stops
    /// the walk and returns false, leaving the runs before it changed.
    /// Every offset of a run holds the same value, so this equals applying
    /// the same per-byte rule to each byte in order and stopping at the
    /// first byte that fails. Offsets at or past `size` hold nothing and
    /// are not visited.
    template <typename Verdict, typename Change>
    bool update(std::uint64_t offset, std::uint64_t len, std::uint64_t size,
                Verdict&& verdict, Change&& change) {
        const std::uint64_t end = std::min(offset + len, size);
        std::size_t first_changed = runs_.size();
        std::size_t last_changed = 0;
        bool ok = true;
        for (std::size_t i = find(offset); i < runs_.size() && runs_[i].start < end;
             ++i) {
            const RunVerdict decided = verdict(std::as_const(runs_[i].value));
            if (decided == RunVerdict::Fail) {
                ok = false;
                break;
            }
            if (decided == RunVerdict::Keep) continue;
            if (runs_[i].start < offset) {
                runs_.insert(i + 1, Run{offset, runs_[i].value});
                ++i;
            }
            if (run_end(i, size) > end) {
                runs_.insert(i + 1, Run{end, runs_[i].value});
            }
            change(runs_[i].value);
            first_changed = std::min(first_changed, i);
            last_changed = i;
        }
        if (first_changed < runs_.size()) coalesce(first_changed, last_changed);
        return ok;
    }

    /// Sets every offset of [offset, offset + len) to `value`; returns how
    /// many of them held something else.
    std::uint64_t assign(std::uint64_t offset, std::uint64_t len,
                         std::uint64_t size, const T& value) {
        const std::uint64_t end = std::min(offset + len, size);
        if (runs_.size() == 1 && offset == 0 && end == size) {
            // The whole map: the common first store of a fresh local.
            if (runs_[0].value == value) return 0;
            runs_[0].value = value;
            return size;
        }
        std::uint64_t changed = 0;
        for (std::size_t i = find(offset); i < runs_.size() && runs_[i].start < end;
             ++i) {
            if (runs_[i].value == value) continue;
            changed += std::min(run_end(i, size), end) -
                       std::max(runs_[i].start, offset);
        }
        if (changed != 0) {
            update(
                offset, len, size,
                [&](const T& old) {
                    return old == value ? RunVerdict::Keep : RunVerdict::Change;
                },
                [&](T& old) { old = value; });
        }
        return changed;
    }

    /// Heap bytes held beyond the object, the values' own included.
    template <typename ValueHeap>
    [[nodiscard]] std::size_t heap_bytes(ValueHeap&& value_heap) const {
        std::size_t bytes = runs_.heap_bytes();
        for (const Run& run : runs_) bytes += value_heap(run.value);
        return bytes;
    }

    friend bool operator==(const RunMap& a, const RunMap& b) {
        return a.runs_ == b.runs_;
    }

  private:
    /// Merges equal neighbours around the changed runs [first, last]; the
    /// rest of the map was canonical already.
    void coalesce(std::size_t first, std::size_t last) {
        std::size_t i = std::max<std::size_t>(first, 1);
        std::size_t stop = last + 1;  // the last boundary that may merge
        while (i <= stop && i < runs_.size()) {
            if (runs_[i].value == runs_[i - 1].value) {
                runs_.erase(i, i + 1);
                --stop;
            } else {
                ++i;
            }
        }
    }

    InlineVec<Run, N> runs_;
};

}  // namespace rustbrain::miri
