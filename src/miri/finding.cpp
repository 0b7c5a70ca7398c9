#include "miri/finding.hpp"

namespace rustbrain::miri {

const char* ub_category_name(UbCategory category) {
    switch (category) {
        case UbCategory::Alloc: return "Alloc";
        case UbCategory::DanglingPointer: return "DanglingPointer";
        case UbCategory::Panic: return "Panic";
        case UbCategory::Provenance: return "Provenance";
        case UbCategory::Uninit: return "Uninit";
        case UbCategory::BothBorrow: return "BothBorrow";
        case UbCategory::DataRace: return "DataRace";
        case UbCategory::FuncCall: return "FuncCall";
        case UbCategory::FuncPointer: return "FuncPointer";
        case UbCategory::StackBorrow: return "StackBorrow";
        case UbCategory::Validity: return "Validity";
        case UbCategory::Unaligned: return "Unaligned";
        case UbCategory::Concurrency: return "Concurrency";
        case UbCategory::TailCall: return "TailCall";
        case UbCategory::CompileError: return "CompileError";
    }
    return "?";
}

const char* ub_category_label(UbCategory category) {
    switch (category) {
        case UbCategory::Alloc: return "alloc";
        case UbCategory::DanglingPointer: return "danglingpointer";
        case UbCategory::Panic: return "panic";
        case UbCategory::Provenance: return "provenance";
        case UbCategory::Uninit: return "uninit";
        case UbCategory::BothBorrow: return "bothborrow";
        case UbCategory::DataRace: return "datarace";
        case UbCategory::FuncCall: return "func.call";
        case UbCategory::FuncPointer: return "func.pointer";
        case UbCategory::StackBorrow: return "stackborrow";
        case UbCategory::Validity: return "validity";
        case UbCategory::Unaligned: return "unaligned";
        case UbCategory::Concurrency: return "concurrency";
        case UbCategory::TailCall: return "tailcall";
        case UbCategory::CompileError: return "compile.error";
    }
    return "?";
}

const std::vector<UbCategory>& all_ub_categories() {
    static const std::vector<UbCategory> categories = {
        UbCategory::Alloc,        UbCategory::DanglingPointer,
        UbCategory::Panic,        UbCategory::Provenance,
        UbCategory::Uninit,       UbCategory::BothBorrow,
        UbCategory::DataRace,     UbCategory::FuncCall,
        UbCategory::FuncPointer,  UbCategory::StackBorrow,
        UbCategory::Validity,     UbCategory::Unaligned,
        UbCategory::Concurrency,  UbCategory::TailCall,
    };
    return categories;
}

std::string Finding::to_string() const {
    std::string out = "UB[";
    out += ub_category_label(category);
    out += "]";
    if (span.valid()) {
        out += " at ";
        out += span.to_string();
    }
    out += ": ";
    out += message;
    return out;
}

std::string Finding::key() const {
    return std::string(ub_category_name(category)) + "|" + message;
}

void FaultRecord::record(UbCategory category, const char* message,
                         const support::SourceSpan& span) {
    record(category, std::string(message), span);
}

void FaultRecord::record(UbCategory category, std::string&& message,
                         const support::SourceSpan& span) {
    raised_ = true;
    finding_ = Finding{category, std::move(message), span};
    steps_at_ = steps_ != nullptr ? *steps_ : 0;
    output_at_ = output_ != nullptr ? output_->size() : 0;
}

std::optional<Finding> FaultRecord::take() {
    if (!raised_) return std::nullopt;
    raised_ = false;
    return std::move(finding_);
}

}  // namespace rustbrain::miri
