#pragma once

/// @file snapshot.hpp
/// Versioned, CRC-checksummed binary container for run checkpoints.
///
/// The durable-run subsystem (docs/ARCHITECTURE.md, "Durability model")
/// persists everything a run needs to continue — population columns, salt
/// history, bans, model weights, the metrics tape — into a single file per
/// checkpoint. The format is deliberately dumb: a fixed header followed by
/// tagged sections, every byte of which is covered by a CRC32 (`util/crc32.hpp`,
/// the same checksum the shard wire protocol in `mec/wire_format.hpp`
/// frames with). A torn write, a truncated prefix, or a single flipped bit
/// anywhere in the file fails a checksum or a bounds check and raises
/// `SnapshotError` with the offending path and section — a checkpoint is
/// either consumed whole or rejected whole, never half-loaded.
///
/// Writes are atomic: the file image is encoded in one buffer, written to
/// `<path>.tmp`, fsync'd, renamed over `<path>`, and the directory is
/// fsync'd. A crash at any point leaves either the previous file or a
/// `.tmp` that readers never look at.
///
/// File layout (all integers little-endian):
///
///   u32 magic 'FMSN' | u32 version | u32 section_count | u32 header_crc
///   per section:
///     u32 tag | u64 payload_size | u32 payload_crc | u32 section_header_crc
///     payload bytes
///
/// `header_crc` covers the 12 bytes before it; `section_header_crc` covers
/// the 16 bytes before it; `payload_crc` covers the payload. Trailing bytes
/// after the last section are an error (they would mean a size/count
/// mismatch slipped through).
///
/// The codec is little-endian by definition and only builds on
/// little-endian hosts, so every scalar and every vector body is a plain
/// memcpy of its in-memory bytes.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/util/crc32.hpp"

namespace fmore::util {

/// Every snapshot failure — I/O, truncation, corruption, type mismatch —
/// surfaces as this, with a message naming the file and section involved.
class SnapshotError : public std::runtime_error {
public:
    explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// The codec's byte order is the host's: memcpy of a scalar or a vector
// body IS its little-endian encoding.
static_assert(std::endian::native == std::endian::little,
              "the snapshot codec is little-endian and memcpy-based");

/// Append-only little-endian encoder for section payloads. Strings and
/// vectors are length-prefixed; floats go through memcpy so the bit
/// pattern — not a decimal rendering — is what round-trips. A vector body
/// is one bulk append.
class ByteWriter {
public:
    void put_u32(std::uint32_t v) { append(&v, sizeof v); }
    void put_u64(std::uint64_t v) { append(&v, sizeof v); }
    void put_f32(float v) { append(&v, sizeof v); }
    void put_f64(double v) { append(&v, sizeof v); }
    void put_str(const std::string& s) {
        put_u64(s.size());
        append(s.data(), s.size());
    }
    void put_f32_vec(const std::vector<float>& v) { put_vec(v); }
    void put_f64_vec(const std::vector<double>& v) { put_vec(v); }
    void put_u64_vec(const std::vector<std::uint64_t>& v) { put_vec(v); }

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    friend class SnapshotWriter;

    void append(const void* data, std::size_t size) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        bytes_.insert(bytes_.end(), p, p + size);
    }
    template <class T>
    void put_vec(const std::vector<T>& v) {
        put_u64(v.size());
        append(v.data(), v.size() * sizeof(T));
    }

    std::vector<std::uint8_t> bytes_;
};

/// Byte count of what a ByteWriter would append for the same calls — the
/// sizing pass that lets a SnapshotWriter allocate its file image once.
class ByteCounter {
public:
    void put_u32(std::uint32_t) { size_ += 4; }
    void put_u64(std::uint64_t) { size_ += 8; }
    void put_f32(float) { size_ += 4; }
    void put_f64(double) { size_ += 8; }
    void put_str(const std::string& s) { size_ += 8 + s.size(); }
    void put_f32_vec(const std::vector<float>& v) { size_ += 8 + 4 * v.size(); }
    void put_f64_vec(const std::vector<double>& v) { size_ += 8 + 8 * v.size(); }
    void put_u64_vec(const std::vector<std::uint64_t>& v) { size_ += 8 + 8 * v.size(); }

    [[nodiscard]] std::size_t size() const { return size_; }

private:
    std::size_t size_ = 0;
};

/// Bounds-checked decoder for section payloads. Every read that would run
/// past the end throws `SnapshotError` naming `context` — truncation is a
/// diagnosis, not a crash.
class ByteReader {
public:
    ByteReader(const std::uint8_t* data, std::size_t size, std::string context)
        : data_(data), size_(size), context_(std::move(context)) {}

    [[nodiscard]] std::uint32_t get_u32();
    [[nodiscard]] std::uint64_t get_u64();
    [[nodiscard]] float get_f32();
    [[nodiscard]] double get_f64();
    [[nodiscard]] std::string get_str();
    [[nodiscard]] std::vector<float> get_f32_vec();
    [[nodiscard]] std::vector<double> get_f64_vec();
    [[nodiscard]] std::vector<std::uint64_t> get_u64_vec();

    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
    /// Throws unless every payload byte was consumed — a half-read section
    /// means the writer and reader disagree on the schema.
    void expect_end() const;

private:
    void need(std::size_t n, const char* what) const;
    /// u64 element count, then that many `T`s in one memcpy. The count is
    /// checked as `n > remaining() / sizeof(T)`, which cannot wrap.
    template <class T>
    std::vector<T> get_vec(const char* what);

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string context_;
};

/// Encodes a snapshot file from tagged sections straight into its final
/// file image — one buffer, no per-section copies — and writes it
/// atomically.
class SnapshotWriter {
public:
    /// `reserve_bytes`: expected size of the whole image (a
    /// SnapshotSizer's `size()`), so encoding never reallocates.
    explicit SnapshotWriter(std::size_t reserve_bytes = 0);

    /// Add one section whose payload `encode(ByteWriter&)` appends. Its
    /// header slot goes in first; size and CRC are filled in once the
    /// payload is written. Tags must be unique within a file. If `encode`
    /// throws, the half-written section stays: discard the writer.
    template <class Encode>
    void section(std::uint32_t tag, Encode&& encode) {
        const std::size_t start = open_section(tag);
        encode(image_);
        close_section(start);
    }

    /// Add one section with a ready-made payload.
    void add_section(std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
        section(tag, [&](ByteWriter& w) { w.append(payload.data(), payload.size()); });
    }

    /// The complete file image (header + every section added so far).
    [[nodiscard]] const std::vector<std::uint8_t>& serialize() const {
        return image_.bytes();
    }

    /// Atomic write: `<path>.tmp` + fsync + rename + directory fsync.
    /// `mid_write`, when set, runs after roughly half the bytes hit the
    /// temp file and before the rename — the crash-recovery harness uses it
    /// to SIGKILL the process mid-checkpoint and prove the torn `.tmp`
    /// never shadows the previous good checkpoint.
    void write_file(const std::string& path,
                    const std::function<void()>& mid_write = nullptr) const;

    static constexpr std::uint32_t kMagic = 0x4E534D46u; // 'FMSN' little-endian
    static constexpr std::uint32_t kVersion = 1;
    static constexpr std::size_t kHeaderBytes = 16;
    static constexpr std::size_t kSectionHeaderBytes = 20;

private:
    /// Checks the tag, appends a blank section header; returns its offset.
    std::size_t open_section(std::uint32_t tag);
    /// Fills the header at `start` in and re-seals the file header count.
    void close_section(std::size_t start);

    ByteWriter image_;
    std::vector<std::uint32_t> tags_;
};

/// Exact file size a SnapshotWriter reaches for the same `section` calls,
/// computed by running each encoder against a ByteCounter.
class SnapshotSizer {
public:
    template <class Encode>
    void section(std::uint32_t /*tag*/, Encode&& encode) {
        ByteCounter payload;
        encode(payload);
        size_ += SnapshotWriter::kSectionHeaderBytes + payload.size();
    }

    [[nodiscard]] std::size_t size() const { return size_; }

private:
    std::size_t size_ = SnapshotWriter::kHeaderBytes;
};

/// Parses and fully validates a snapshot file: magic, version, all three
/// CRC tiers, section sizes against the file size, duplicate tags,
/// trailing bytes. Construction succeeds only for an intact file.
class SnapshotReader {
public:
    [[nodiscard]] static SnapshotReader from_file(const std::string& path);
    [[nodiscard]] static SnapshotReader from_bytes(std::vector<std::uint8_t> bytes,
                                                   const std::string& context);

    [[nodiscard]] bool has_section(std::uint32_t tag) const {
        return sections_.count(tag) != 0;
    }
    /// @throws SnapshotError when the tag is absent
    [[nodiscard]] const std::vector<std::uint8_t>& section(std::uint32_t tag) const;
    /// Bounds-checked reader over one section's payload.
    [[nodiscard]] ByteReader open_section(std::uint32_t tag) const;
    [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
    [[nodiscard]] const std::string& context() const { return context_; }

private:
    SnapshotReader() = default;
    void parse(const std::vector<std::uint8_t>& bytes);

    std::map<std::uint32_t, std::vector<std::uint8_t>> sections_;
    std::string context_;
};

} // namespace fmore::util
