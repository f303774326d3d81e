#include "models/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "core/logging.h"

namespace echo::models {

namespace {

/** Magic: u32 version + u32 reserved follow, then the body. */
constexpr char kMagic[8] = {'E', 'C', 'H', 'O', 'C', 'K', 'P', 'T'};

void
writeU64(std::ostream &os, uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

uint64_t
readU64(std::istream &is)
{
    uint64_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return v;
}

void
writeU32(std::ostream &os, uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

uint32_t
readU32(std::istream &is)
{
    uint32_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return v;
}

/**
 * Read the tensor entries that follow the header.  Every length is
 * checked against the bytes left in the file before anything is
 * allocated, so a corrupt header is a clean error, never a huge
 * allocation or a wrapped element count.
 */
ParamStore
readBody(std::istream &is, const std::string &path)
{
    const std::streampos body = is.tellg();
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.seekg(body);
    const auto left = [&] { return static_cast<uint64_t>(end - is.tellg()); };

    ParamStore params;
    const uint64_t count = readU64(is);
    ECHO_REQUIRE(is.good(), path,
                 ": corrupt checkpoint: truncated header");
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t name_len = readU64(is);
        ECHO_REQUIRE(is.good() && name_len < (1u << 20) &&
                         name_len <= left(),
                     path, ": corrupt checkpoint: bad name length");
        std::string name(name_len, '\0');
        is.read(name.data(), static_cast<std::streamsize>(name_len));

        const uint64_t ndim = readU64(is);
        ECHO_REQUIRE(is.good() && ndim <= 8,
                     path, ": corrupt checkpoint: bad rank");
        std::vector<int64_t> dims(ndim);
        for (uint64_t d = 0; d < ndim; ++d) {
            is.read(reinterpret_cast<char *>(&dims[d]),
                    sizeof(int64_t));
            ECHO_REQUIRE(is.good() && dims[d] >= 0 &&
                             dims[d] < (1ll << 32),
                         path, ": corrupt checkpoint: bad extent");
        }
        // The data size, each partial product overflow-checked in the
        // order Shape::numel multiplies.
        uint64_t bytes = sizeof(float);
        for (uint64_t d = 0; d < ndim; ++d)
            ECHO_REQUIRE(!__builtin_mul_overflow(
                             bytes, static_cast<uint64_t>(dims[d]),
                             &bytes),
                         path, ": corrupt checkpoint: tensor '", name,
                         "' size overflows");
        ECHO_REQUIRE(bytes <= left(), path,
                     ": corrupt checkpoint: tensor '", name, "' needs ",
                     bytes, " data bytes, ", left(), " left");
        Tensor t{Shape(dims)};
        if (bytes > 0) // an empty tensor has no storage to read into
            is.read(reinterpret_cast<char *>(t.data()),
                    static_cast<std::streamsize>(bytes));
        ECHO_REQUIRE(is.good(),
                     path, ": corrupt checkpoint: truncated data");
        params.emplace(std::move(name), std::move(t));
    }
    ECHO_REQUIRE(left() == 0, path, ": corrupt checkpoint: ", left(),
                 " trailing bytes");
    return params;
}

} // namespace

void
saveParams(const ParamStore &params, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ECHO_REQUIRE(os.good(), "cannot open ", path, " for writing");

    os.write(kMagic, sizeof(kMagic));
    writeU32(os, kCheckpointVersion);
    writeU32(os, 0); // reserved
    writeU64(os, params.size());
    for (const auto &[name, tensor] : params) {
        writeU64(os, name.size());
        os.write(name.data(), static_cast<std::streamsize>(name.size()));
        const Shape &shape = tensor.shape();
        writeU64(os, static_cast<uint64_t>(shape.ndim()));
        for (int d = 0; d < shape.ndim(); ++d) {
            const int64_t extent = shape[d];
            os.write(reinterpret_cast<const char *>(&extent),
                     sizeof(extent));
        }
        // An empty tensor has no storage to read: write no data bytes,
        // as loadParams reads none for it.
        const auto bytes = static_cast<std::streamsize>(tensor.numel() *
                                                        sizeof(float));
        if (bytes > 0)
            os.write(reinterpret_cast<const char *>(tensor.data()), bytes);
    }
    ECHO_REQUIRE(os.good(), "write error on ", path);
}

ParamStore
loadParams(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    ECHO_REQUIRE(is.good(), "cannot open ", path, " for reading");

    char magic[8];
    is.read(magic, sizeof(magic));
    ECHO_REQUIRE(is.good(), path, ": corrupt checkpoint: truncated header");
    ECHO_REQUIRE(std::equal(magic, magic + 4, kMagic),
                 path, " is not an ECHO checkpoint");
    ECHO_REQUIRE(std::equal(std::begin(magic), std::end(magic),
                            std::begin(kMagic)),
                 path, ": unsupported checkpoint format '",
                 std::string(magic, sizeof(magic)), "' (expected '",
                 std::string(kMagic, sizeof(kMagic)), "')");
    const uint32_t version = readU32(is);
    const uint32_t reserved = readU32(is);
    ECHO_REQUIRE(is.good(), path, ": corrupt checkpoint: truncated header");
    ECHO_REQUIRE(version == kCheckpointVersion && reserved == 0,
                 path, ": unsupported checkpoint version ", version);
    return readBody(is, path);
}

} // namespace echo::models
