#include "resilience/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "amr/comm_plan.hpp"
#include "common/bytecodec.hpp"
#include "common/error.hpp"

namespace dfamr::resilience {

namespace {

using bytes::Reader;
using bytes::Writer;

constexpr char kMagic[8] = {'D', 'F', 'A', 'M', 'R', 'C', 'K', 'P'};

// Encoded sizes of the image's repeated records, which bound the counts a
// reader accepts before it sizes anything from them.
constexpr std::size_t kKeyBytes = 4 + 3 * 8;
constexpr std::size_t kObjectBytes = 4 + 4 + 4 * 3 * 8;
constexpr std::size_t kKeyedIntBytes = kKeyBytes + 4;
constexpr std::size_t kBlockHeaderBytes = kKeyBytes + 8;

// Gather tags: a dedicated pair inside the exchange-control tag space,
// disjoint from kAckTag (+0), kBlockIdTag (+1) and kBlockDataTagBase (+16).
constexpr int kSizeTag = amr::kExchangeTagBase + 8;
constexpr int kBlobTag = amr::kExchangeTagBase + 9;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

void put_vec3d(Writer& w, const Vec3d& v) {
    w.f64(v.x);
    w.f64(v.y);
    w.f64(v.z);
}

Vec3d get_vec3d(Reader& r) {
    Vec3d v;
    v.x = r.f64();
    v.y = r.f64();
    v.z = r.f64();
    return v;
}

void put_key(Writer& w, const amr::BlockKey& k) {
    w.i32(k.level);
    w.i64(k.anchor.x);
    w.i64(k.anchor.y);
    w.i64(k.anchor.z);
}

amr::BlockKey get_key(Reader& r) {
    amr::BlockKey k;
    k.level = r.i32();
    k.anchor.x = r.i64();
    k.anchor.y = r.i64();
    k.anchor.z = r.i64();
    return k;
}

std::vector<std::byte> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    DFAMR_REQUIRE(in.good(), "checkpoint: cannot open '" + path + "'");
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::byte> bytes(static_cast<std::size_t>(size));
    if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
    DFAMR_REQUIRE(in.good(), "checkpoint: cannot read '" + path + "'");
    return bytes;
}

/// Parses the header; returns the state and leaves `r` positioned at the
/// per-rank section table.
CheckpointState parse_header(Reader& r) {
    char magic[8];
    r.raw(magic, sizeof magic);
    DFAMR_REQUIRE(std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                  "checkpoint: bad magic (not a dfamr checkpoint)");
    const std::uint32_t version = r.u32();
    DFAMR_REQUIRE(version != 1,
                  "checkpoint: unsupported version 1 (this build reads version " +
                      std::to_string(kCheckpointVersion) +
                      "; version-1 images predate the scenario hysteresis state and cannot "
                      "be restored — re-run the original configuration to produce a fresh "
                      "checkpoint)");
    DFAMR_REQUIRE(version != 2,
                  "checkpoint: unsupported version 2 (this build reads version " +
                      std::to_string(kCheckpointVersion) +
                      "; version-2 images predate the conservative-transport state — the "
                      "simulated time and the mass-conservation ledger a restored run must "
                      "continue from — re-run the original configuration to produce a fresh "
                      "checkpoint)");
    DFAMR_REQUIRE(version == kCheckpointVersion,
                  "checkpoint: unsupported version " + std::to_string(version) +
                      " (this build reads version " + std::to_string(kCheckpointVersion) + ")");

    CheckpointState st;
    st.nranks = static_cast<int>(r.u32());
    st.config_fingerprint = r.u64();
    st.ts_completed = static_cast<int>(r.i64());
    st.stage_counter = static_cast<int>(r.i64());
    st.sim_time = r.f64();
    st.initial_mass = r.f64();
    st.mass_drift = r.f64();
    st.boundary_outflux = r.f64();
    st.reflux_corrections = r.i64();

    st.objects.resize(r.fits(r.u32(), kObjectBytes));
    for (amr::ObjectSpec& obj : st.objects) {
        obj.type = static_cast<amr::ObjectType>(r.i32());
        obj.bounce = r.u32() != 0;
        obj.center = get_vec3d(r);
        obj.move = get_vec3d(r);
        obj.size = get_vec3d(r);
        obj.inc = get_vec3d(r);
    }

    st.checksums.resize(r.fits(r.u32(), sizeof(double)));
    for (double& v : st.checksums) v = r.f64();
    st.checksum_reference.resize(r.fits(r.u32(), sizeof(double)));
    for (double& v : st.checksum_reference) v = r.f64();
    st.validation_ok = r.u32() != 0;

    const std::size_t nleaves = r.fits(r.u32(), kKeyedIntBytes);
    for (std::size_t i = 0; i < nleaves; ++i) {
        const amr::BlockKey key = get_key(r);
        st.owners[key] = r.i32();
    }

    const std::size_t nderef = r.fits(r.u32(), kKeyedIntBytes);
    for (std::size_t i = 0; i < nderef; ++i) {
        const amr::BlockKey key = get_key(r);
        st.deref_counts[key] = r.i32();
    }
    return st;
}

}  // namespace

std::uint64_t config_fingerprint(const amr::Config& cfg) {
    std::uint64_t h = 0x64666d61u;  // arbitrary non-zero start
    for (const int v : {cfg.npx, cfg.npy, cfg.npz, cfg.init_x, cfg.init_y, cfg.init_z, cfg.nx,
                        cfg.ny, cfg.nz, cfg.num_vars, cfg.num_refine,
                        static_cast<int>(cfg.objects.size())}) {
        h = mix(h, static_cast<std::uint64_t>(v));
    }
    h = mix(h, cfg.seed);
    // Scenario identity: a checkpoint of an advected-gaussian run must not
    // restore into an objects-driven synthetic run (field data, refinement
    // marks and dt would all silently disagree).
    for (const char c : cfg.scenario) h = mix(h, static_cast<std::uint64_t>(c));
    for (const char c : cfg.estimator) h = mix(h, static_cast<std::uint64_t>(c));
    std::uint64_t threshold_bits = 0;
    static_assert(sizeof threshold_bits == sizeof cfg.refine_threshold);
    std::memcpy(&threshold_bits, &cfg.refine_threshold, sizeof threshold_bits);
    h = mix(h, threshold_bits);
    h = mix(h, static_cast<std::uint64_t>(cfg.deref_count));
    return h;
}

std::vector<std::byte> serialize_rank_blocks(const amr::Mesh& mesh) {
    Writer w;
    const std::vector<amr::BlockKey> keys = mesh.owned_keys();
    w.u32(static_cast<std::uint32_t>(keys.size()));
    for (const amr::BlockKey& key : keys) {
        const amr::Block& blk = mesh.block(key);
        put_key(w, key);
        w.u64(blk.data_size());
        w.raw(blk.data(), blk.data_size() * sizeof(double));
    }
    return std::move(w.bytes);
}

std::vector<std::byte> build_checkpoint(HardenedComm& comm, const CheckpointState& state,
                                        const std::vector<std::byte>& rank_blob) {
    const int rank = comm.rank();
    const int nranks = comm.raw().size();
    if (rank != 0) {
        const std::uint64_t size = rank_blob.size();
        comm.send(&size, sizeof size, 0, kSizeTag);
        if (size > 0) comm.send(rank_blob.data(), rank_blob.size(), 0, kBlobTag);
        return {};
    }

    std::vector<std::vector<std::byte>> sections(static_cast<std::size_t>(nranks));
    sections[0] = rank_blob;
    for (int r = 1; r < nranks; ++r) {
        std::uint64_t size = 0;
        comm.recv(&size, sizeof size, r, kSizeTag);
        sections[static_cast<std::size_t>(r)].resize(size);
        if (size > 0) {
            comm.recv(sections[static_cast<std::size_t>(r)].data(), size, r, kBlobTag);
        }
    }

    Writer w;
    w.raw(kMagic, sizeof kMagic);
    w.u32(kCheckpointVersion);
    w.u32(static_cast<std::uint32_t>(nranks));
    w.u64(state.config_fingerprint);
    w.i64(state.ts_completed);
    w.i64(state.stage_counter);
    w.f64(state.sim_time);
    w.f64(state.initial_mass);
    w.f64(state.mass_drift);
    w.f64(state.boundary_outflux);
    w.i64(state.reflux_corrections);
    w.u32(static_cast<std::uint32_t>(state.objects.size()));
    for (const amr::ObjectSpec& obj : state.objects) {
        w.i32(static_cast<std::int32_t>(obj.type));
        w.u32(obj.bounce ? 1 : 0);
        put_vec3d(w, obj.center);
        put_vec3d(w, obj.move);
        put_vec3d(w, obj.size);
        put_vec3d(w, obj.inc);
    }
    w.u32(static_cast<std::uint32_t>(state.checksums.size()));
    for (const double v : state.checksums) w.f64(v);
    w.u32(static_cast<std::uint32_t>(state.checksum_reference.size()));
    for (const double v : state.checksum_reference) w.f64(v);
    w.u32(state.validation_ok ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(state.owners.size()));
    for (const auto& [key, owner] : state.owners) {
        put_key(w, key);
        w.i32(owner);
    }
    w.u32(static_cast<std::uint32_t>(state.deref_counts.size()));
    for (const auto& [key, count] : state.deref_counts) {
        put_key(w, key);
        w.i32(count);
    }

    // Section table, then the sections themselves.
    const std::size_t table_at = w.bytes.size();
    std::size_t offset = table_at + static_cast<std::size_t>(nranks) * 2 * sizeof(std::uint64_t);
    for (int r = 0; r < nranks; ++r) {
        w.u64(offset);
        w.u64(sections[static_cast<std::size_t>(r)].size());
        offset += sections[static_cast<std::size_t>(r)].size();
    }
    for (const auto& section : sections) {
        w.raw(section.data(), section.size());
    }
    return std::move(w.bytes);
}

void write_checkpoint_file(const std::string& path, std::span<const std::byte> image) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        DFAMR_REQUIRE(out.good(), "checkpoint: cannot write '" + tmp + "'");
        out.write(reinterpret_cast<const char*>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        DFAMR_REQUIRE(out.good(), "checkpoint: write failed for '" + tmp + "'");
    }
    DFAMR_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "checkpoint: cannot move '" + tmp + "' into place");
}

void write_checkpoint(HardenedComm& comm, const std::string& path, const CheckpointState& state,
                      const std::vector<std::byte>& rank_blob) {
    const std::vector<std::byte> image = build_checkpoint(comm, state, rank_blob);
    if (comm.rank() == 0) write_checkpoint_file(path, image);
}

CheckpointState read_checkpoint_state(std::span<const std::byte> image) {
    Reader r{image.data(), image.size()};
    return parse_header(r);
}

CheckpointState read_checkpoint_state(const std::string& path) {
    const std::vector<std::byte> bytes = read_file(path);
    return read_checkpoint_state(std::span<const std::byte>(bytes));
}

std::vector<std::pair<amr::BlockKey, std::vector<double>>> read_rank_blocks(
    std::span<const std::byte> image, int rank) {
    Reader r{image.data(), image.size()};
    const CheckpointState st = parse_header(r);
    DFAMR_REQUIRE(0 <= rank && rank < st.nranks, "checkpoint: rank out of range");

    // Reader sits at the section table now.
    std::uint64_t offset = 0, size = 0;
    for (int i = 0; i <= rank; ++i) {
        offset = r.u64();
        size = r.u64();
    }
    // Written so that no sum can wrap.
    DFAMR_REQUIRE(size <= image.size() && offset <= image.size() - size,
                  "checkpoint: section out of bounds");

    Reader section{image.data() + offset, static_cast<std::size_t>(size)};
    const std::size_t nblocks = section.fits(section.u32(), kBlockHeaderBytes);
    std::vector<std::pair<amr::BlockKey, std::vector<double>>> out;
    out.reserve(nblocks);
    for (std::size_t i = 0; i < nblocks; ++i) {
        const amr::BlockKey key = get_key(section);
        std::vector<double> data(section.fits(section.u64(), sizeof(double)));
        section.raw(data.data(), data.size() * sizeof(double));
        out.emplace_back(key, std::move(data));
    }
    return out;
}

std::vector<std::pair<amr::BlockKey, std::vector<double>>> read_rank_blocks(
    const std::string& path, int rank) {
    const std::vector<std::byte> bytes = read_file(path);
    return read_rank_blocks(std::span<const std::byte>(bytes), rank);
}

}  // namespace dfamr::resilience
