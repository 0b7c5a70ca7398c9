// Corpus serialization — a versioned, line-oriented text format that
// round-trips any Corpus (standard, forged, hand-assembled) byte-exactly.
//
//   rustbrain-corpus v1
//   cases <N>
//
//   case <id>
//   category <label>            e.g. danglingpointer, func.call
//   strategy <name>             safe-alternative | assertion-guard | ...
//   difficulty <1..3>
//   inputs <k>
//   input <len> <v0> <v1> ...   (k lines)
//   buggy <bytes>               followed by exactly <bytes> raw source bytes
//   <raw bytes>                 and one terminating newline
//   fix <bytes>
//   <raw bytes>
//   end
//
// Sources are stored with explicit byte counts, never escaped, so any
// program text round-trips exactly and save(load(x)) == x byte-for-byte.
// Loading (support::LineReader, shared with the service wire, which embeds
// this format in every request) accepts only the canonical spelling of
// each number, so that holds for every x that loads. It validates
// structure eagerly and throws std::runtime_error with a message naming
// the offending line and case/field; duplicate ids are rejected by the
// Corpus constructor.
#pragma once

#include <string>

#include "dataset/corpus.hpp"

namespace rustbrain::gen {

constexpr int kCorpusFormatVersion = 1;

/// Render a corpus in the versioned text format (deterministic: depends
/// only on the corpus contents).
std::string corpus_to_string(const dataset::Corpus& corpus);

/// Parse the text format. Throws std::runtime_error on malformed input and
/// std::invalid_argument on duplicate case ids.
dataset::Corpus corpus_from_string(const std::string& text);

/// File wrappers; both throw std::runtime_error when the file cannot be
/// opened (and load on any format error).
void save_corpus(const dataset::Corpus& corpus, const std::string& path);
dataset::Corpus load_corpus(const std::string& path);

}  // namespace rustbrain::gen
