#include "fmore/util/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace fmore::util {

namespace {

std::uint32_t read_u32_at(const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::uint64_t read_u64_at(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void write_u32_at(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

/// write(2) until done, retrying on EINTR. Throws on any other failure.
void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const std::string& path) {
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            int err = errno;
            throw SnapshotError("snapshot: write to '" + path +
                                "' failed: " + std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

// ---------------------------------------------------------------- ByteReader

void ByteReader::need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n)
        throw SnapshotError("snapshot: " + context_ + ": truncated while reading " +
                            what + " (need " + std::to_string(n) + " bytes, " +
                            std::to_string(size_ - pos_) + " left)");
}

std::uint32_t ByteReader::get_u32() {
    need(4, "u32");
    std::uint32_t v = read_u32_at(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t ByteReader::get_u64() {
    need(8, "u64");
    std::uint64_t v = read_u64_at(data_ + pos_);
    pos_ += 8;
    return v;
}

float ByteReader::get_f32() { return std::bit_cast<float>(get_u32()); }
double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string ByteReader::get_str() {
    std::uint64_t n = get_u64();
    need(n, "string bytes");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
}

template <class T>
std::vector<T> ByteReader::get_vec(const char* what) {
    const std::uint64_t n = get_u64();
    if (n > remaining() / sizeof(T))
        throw SnapshotError("snapshot: " + context_ + ": " + what + " declares "
                            + std::to_string(n) + " elements, only "
                            + std::to_string(remaining()) + " bytes left");
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
}

std::vector<float> ByteReader::get_f32_vec() { return get_vec<float>("f32 vector"); }
std::vector<double> ByteReader::get_f64_vec() { return get_vec<double>("f64 vector"); }
std::vector<std::uint64_t> ByteReader::get_u64_vec() {
    return get_vec<std::uint64_t>("u64 vector");
}

void ByteReader::expect_end() const {
    if (pos_ != size_)
        throw SnapshotError("snapshot: " + context_ + ": " +
                            std::to_string(size_ - pos_) +
                            " unread bytes after the last field (schema mismatch)");
}

// ------------------------------------------------------------ SnapshotWriter

SnapshotWriter::SnapshotWriter(std::size_t reserve_bytes) {
    image_.bytes_.reserve(std::max(reserve_bytes, kHeaderBytes));
    image_.put_u32(kMagic);
    image_.put_u32(kVersion);
    image_.put_u32(0); // section count, sealed by close_section
    image_.put_u32(crc32(image_.bytes_.data(), 12));
}

std::size_t SnapshotWriter::open_section(std::uint32_t tag) {
    if (std::find(tags_.begin(), tags_.end(), tag) != tags_.end())
        throw SnapshotError("snapshot: duplicate section tag " + std::to_string(tag));
    tags_.push_back(tag);
    const std::size_t start = image_.bytes_.size();
    image_.put_u32(tag);
    image_.put_u64(0); // payload size, filled in by close_section
    image_.put_u32(0); // payload CRC, likewise
    image_.put_u32(0); // section header CRC, likewise
    return start;
}

void SnapshotWriter::close_section(std::size_t start) {
    std::uint8_t* bytes = image_.bytes_.data();
    std::uint8_t* hdr = bytes + start;
    const std::uint64_t payload_size =
        image_.bytes_.size() - start - kSectionHeaderBytes;
    std::memcpy(hdr + 4, &payload_size, sizeof payload_size);
    write_u32_at(hdr + 12, crc32(hdr + kSectionHeaderBytes, payload_size));
    write_u32_at(hdr + 16, crc32(hdr, 16));
    write_u32_at(bytes + 8, static_cast<std::uint32_t>(tags_.size()));
    write_u32_at(bytes + 12, crc32(bytes, 12));
}

void SnapshotWriter::write_file(const std::string& path,
                                const std::function<void()>& mid_write) const {
    const std::vector<std::uint8_t>& bytes = image_.bytes();
    const std::string tmp = path + ".tmp";

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        int err = errno;
        throw SnapshotError("snapshot: cannot create '" + tmp +
                            "': " + std::strerror(err));
    }
    try {
        const std::size_t half = bytes.size() / 2;
        write_all(fd, bytes.data(), half, tmp);
        if (mid_write) mid_write();
        write_all(fd, bytes.data() + half, bytes.size() - half, tmp);
        if (::fsync(fd) != 0) {
            int err = errno;
            throw SnapshotError("snapshot: fsync '" + tmp +
                                "' failed: " + std::strerror(err));
        }
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        throw SnapshotError("snapshot: rename '" + tmp + "' -> '" + path +
                            "' failed: " + std::strerror(err));
    }

    // fsync the directory so the rename itself is durable.
    std::string dir = path;
    std::size_t slash = dir.find_last_of('/');
    dir = (slash == std::string::npos) ? std::string(".") : dir.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

// ------------------------------------------------------------ SnapshotReader

SnapshotReader SnapshotReader::from_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
        int err = errno;
        throw SnapshotError("snapshot: cannot open '" + path +
                            "': " + std::strerror(err));
    }
    std::vector<std::uint8_t> bytes;
    std::array<std::uint8_t, 1 << 16> buf;
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        bytes.insert(bytes.end(), buf.data(), buf.data() + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw SnapshotError("snapshot: read error on '" + path + "'");
    return from_bytes(std::move(bytes), path);
}

SnapshotReader SnapshotReader::from_bytes(std::vector<std::uint8_t> bytes,
                                          const std::string& context) {
    SnapshotReader r;
    r.context_ = context;
    r.parse(bytes);
    return r;
}

void SnapshotReader::parse(const std::vector<std::uint8_t>& bytes) {
    const auto fail = [this](const std::string& why) -> void {
        throw SnapshotError("snapshot: '" + context_ + "': " + why);
    };

    if (bytes.size() < 16) fail("file too short for header (" +
                                std::to_string(bytes.size()) + " bytes)");
    if (read_u32_at(bytes.data()) != SnapshotWriter::kMagic)
        fail("bad magic (not a snapshot file)");
    const std::uint32_t version = read_u32_at(bytes.data() + 4);
    if (version != SnapshotWriter::kVersion)
        fail("unsupported version " + std::to_string(version) + " (expected " +
             std::to_string(SnapshotWriter::kVersion) + ")");
    const std::uint32_t count = read_u32_at(bytes.data() + 8);
    if (read_u32_at(bytes.data() + 12) != crc32(bytes.data(), 12))
        fail("file header checksum mismatch");

    std::size_t pos = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (bytes.size() - pos < 20)
            fail("truncated at section " + std::to_string(i) + " header");
        const std::uint8_t* hdr = bytes.data() + pos;
        if (read_u32_at(hdr + 16) != crc32(hdr, 16))
            fail("section " + std::to_string(i) + " header checksum mismatch");
        const std::uint32_t tag = read_u32_at(hdr);
        const std::uint64_t payload_size = read_u64_at(hdr + 4);
        const std::uint32_t payload_crc = read_u32_at(hdr + 12);
        pos += 20;
        if (bytes.size() - pos < payload_size)
            fail("section " + std::to_string(i) + " (tag " + std::to_string(tag) +
                 ") truncated: payload needs " + std::to_string(payload_size) +
                 " bytes, " + std::to_string(bytes.size() - pos) + " left");
        if (crc32(bytes.data() + pos, payload_size) != payload_crc)
            fail("section " + std::to_string(i) + " (tag " + std::to_string(tag) +
                 ") payload checksum mismatch");
        if (sections_.count(tag))
            fail("duplicate section tag " + std::to_string(tag));
        sections_[tag].assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                              bytes.begin() + static_cast<std::ptrdiff_t>(pos + payload_size));
        pos += payload_size;
    }
    if (pos != bytes.size())
        fail(std::to_string(bytes.size() - pos) + " trailing bytes after section " +
             std::to_string(count ? count - 1 : 0));
}

const std::vector<std::uint8_t>& SnapshotReader::section(std::uint32_t tag) const {
    auto it = sections_.find(tag);
    if (it == sections_.end())
        throw SnapshotError("snapshot: '" + context_ + "': missing section tag " +
                            std::to_string(tag));
    return it->second;
}

ByteReader SnapshotReader::open_section(std::uint32_t tag) const {
    const std::vector<std::uint8_t>& p = section(tag);
    return ByteReader(p.data(), p.size(),
                      context_ + " section " + std::to_string(tag));
}

} // namespace fmore::util
