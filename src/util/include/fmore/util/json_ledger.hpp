#pragma once

/// @file json_ledger.hpp
/// Section-bounded splicing for the shared benchmark ledgers
/// (BENCH_scale.json and friends). Several benches co-own one JSON object,
/// each responsible for a single top-level member ("scale" rows,
/// "faults", "streaming", ...). Each bench rewrites only its own section
/// and must leave every other section byte-for-byte intact, REGARDLESS of
/// the order the sections appear in — a hand-edited or re-ordered ledger
/// is still a valid ledger.
///
/// The scanner is string-aware: a key name occurring inside a nested
/// string value (say a fault-plan spec or a row's "name" field) never
/// matches, and braces inside strings never unbalance the section walk.
/// Only members of the ROOT object (depth 1, outside arrays) are
/// candidates.
///
/// These helpers deliberately stop short of a JSON parser: the ledgers are
/// machine-written, so locating + replacing a member span is all the
/// benches need, and keeping the untouched bytes verbatim is exactly what
/// a parse/re-serialize round trip would NOT guarantee.

#include <cstddef>
#include <string>

namespace fmore::util {

/// Locate the root-level member `"key": <value>` in the JSON object
/// `text`. On success `begin` is the index of the key's opening quote and
/// `end` is one past the last byte of the value (the matching `}` / `]` /
/// closing quote, or the last byte of a bare literal). Returns false when
/// the key is absent at the root level.
[[nodiscard]] bool find_ledger_section(const std::string& text,
                                       const std::string& key,
                                       std::size_t& begin, std::size_t& end);

/// The `"key": <value>` text of the root-level member, or "" when absent.
[[nodiscard]] std::string extract_ledger_section(const std::string& text,
                                                 const std::string& key);

/// `text` with the root-level member removed, along with whichever comma
/// (preceding, else following) stitched it to its neighbours. No-op when
/// the key is absent.
[[nodiscard]] std::string remove_ledger_section(std::string text,
                                                const std::string& key);

/// Replace the root-level member in place with `section` (a full
/// `"key": <value>` rendering, starting at the key's opening quote, no
/// trailing comma). When the key is absent the section is appended before
/// the root object's closing brace; when `text` holds no object at all a
/// fresh `{ section }` document is emitted. Every other byte of `text` is
/// preserved verbatim, so splice order across benches is irrelevant.
[[nodiscard]] std::string splice_ledger_section(std::string text,
                                                const std::string& key,
                                                const std::string& section);

/// The widest SIMD extension the including translation unit was compiled
/// for: the `isa` a ledger records next to its figures. Inline on purpose,
/// so it reports the flags of the bench that includes it (the project's
/// build flags, shared with the libraries it links).
[[nodiscard]] inline const char* compiled_isa() {
#if defined(__AVX512F__)
    return "avx512f";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__AVX__)
    return "avx";
#elif defined(__SSE4_2__)
    return "sse4.2";
#elif defined(__SSE2__)
    return "sse2";
#elif defined(__ARM_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

} // namespace fmore::util
