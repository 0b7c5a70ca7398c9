// Registry — build a value from a string id + arguments, the one mechanism
// behind core::EngineRegistry (repair engines), core::PolicyRegistry
// (thinking policies) and gen::GeneratorRegistry (case generators).
//
// Entries are kept sorted by id. Unknown ids throw std::invalid_argument
// listing what IS available ("unknown <kind> id 'x'; available: a b c"),
// so a typo in a sweep or forge config fails loudly instead of silently
// running a default; a duplicate registration throws too.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rustbrain::support {

template <class Signature>
class Registry;

template <class Product, class... Args>
class Registry<Product(Args...)> {
  public:
    using Builder = std::function<Product(Args...)>;

    struct Entry {
        std::string id;
        std::string description;
        Builder build;
    };

    /// `kind` names the registered things in error messages ("engine").
    explicit Registry(std::string kind) : kind_(std::move(kind)) {}

    /// Register an entry; throws std::invalid_argument on a duplicate id.
    void add(Entry entry) {
        if (entries_.count(entry.id) != 0) {
            throw std::invalid_argument("duplicate " + kind_ + " id: " + entry.id);
        }
        entries_.emplace(entry.id, std::move(entry));
    }

    [[nodiscard]] bool contains(const std::string& id) const {
        return entries_.count(id) != 0;
    }

    [[nodiscard]] const Entry* find(const std::string& id) const {
        const auto it = entries_.find(id);
        return it == entries_.end() ? nullptr : &it->second;
    }

    [[nodiscard]] std::vector<std::string> ids() const {  // sorted
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto& [id, entry] : entries_) out.push_back(id);
        return out;
    }

    /// "id — description" lines, one per entry (for usage text).
    [[nodiscard]] std::string help() const {
        std::string out;
        for (const auto& [id, entry] : entries_) {
            out += "  " + id + " — " + entry.description + "\n";
        }
        return out;
    }

    /// Build by id. Throws std::invalid_argument listing the available ids
    /// when `id` is unknown; builders throw on options they do not accept.
    [[nodiscard]] Product build(const std::string& id, Args... args) const {
        const Entry* entry = find(id);
        if (entry == nullptr) {
            std::string message = "unknown " + kind_ + " id '" + id + "'; available:";
            for (const std::string& known : ids()) message += ' ' + known;
            throw std::invalid_argument(message);
        }
        return entry->build(std::forward<Args>(args)...);
    }

    /// Build by id with default-constructed arguments.
    [[nodiscard]] Product build(const std::string& id) const {
        return build(id, std::decay_t<Args>{}...);
    }

  private:
    std::string kind_;
    std::map<std::string, Entry> entries_;
};

}  // namespace rustbrain::support
