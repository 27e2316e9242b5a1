// Versioned binary checkpoint/restart of the full simulation state.
//
// Layout (version 3, little-endian fixed-width fields):
//   magic "DFAMRCKP" | u32 version | u32 nranks | u64 config fingerprint
//   | i64 ts_completed | i64 stage_counter
//   | f64 sim_time | f64 initial_mass | f64 mass_drift
//   | f64 boundary_outflux | i64 reflux_corrections           [v3]
//   | objects (count + raw ObjectSpec fields)
//   | checksum history, drift reference, validation flag
//   | leaf owner map (count + {level, anchor, owner})
//   | deref hysteresis counters (count + {key, i32 streak})   [v2]
//   | per-rank section table (offset, size)
//   | per-rank block sections ({key, cell data} per owned block)
//
// Version 2 added the scenario subsystem's per-block coarsen-willing streak
// counters (and folded the scenario/estimator selection into the config
// fingerprint). Version 3 added the conservative-transport state: the
// simulated time (dt now varies for cfl_from_field scenarios, so
// stage * dt no longer reconstructs it) and the global conservation ledger
// (mass drift, boundary outflux, reflux-correction count — allreduced at
// write, restored on rank 0 only). Flux registers themselves are per-stage
// transients, rebuilt with the comm plan, and are never serialized. Older
// images are rejected with a clear error rather than silently misread.
//
// Writing is collective: every rank serializes its own blocks, ranks != 0
// ship their blob to rank 0 over hardened point-to-point on dedicated tags,
// and rank 0 assembles the complete checkpoint image in memory. The image
// can then be written to a file atomically (tmp + rename) or kept in memory
// — job suspend/resume in the serve layer round-trips state without ever
// touching disk, through byte-identical images. Restoring needs no
// communication: ranks share the process, so each reads its own section.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amr/config.hpp"
#include "amr/mesh.hpp"
#include "amr/object.hpp"
#include "resilience/hardened_comm.hpp"

namespace dfamr::resilience {

inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Everything global a restored run needs besides the per-rank blocks.
struct CheckpointState {
    std::uint64_t config_fingerprint = 0;
    int nranks = 0;
    int ts_completed = 0;
    int stage_counter = 0;
    /// Simulated time so far (sum of the dt of every completed stage; not
    /// stage_counter * dt once dt varies with the live field).
    double sim_time = 0;
    /// Global initial mass of the original (pre-checkpoint) run: a restored
    /// run keeps the budget identity against the true simulation start.
    double initial_mass = 0;
    /// Global conservation ledger at checkpoint time (allreduced at write;
    /// restore seeds rank 0 only so the end-of-run allreduce is exact).
    double mass_drift = 0;
    double boundary_outflux = 0;
    std::int64_t reflux_corrections = 0;
    std::vector<amr::ObjectSpec> objects;
    std::vector<double> checksums;           // RankResult history so far
    std::vector<double> checksum_reference;  // drift reference per group
    bool validation_ok = true;
    std::map<amr::BlockKey, int> owners;     // global leaf -> rank map
    /// Replicated coarsen-willing streak per block (scenario hysteresis).
    std::map<amr::BlockKey, int> deref_counts;
};

/// Hash of the Config fields a checkpoint must agree on to be restorable.
std::uint64_t config_fingerprint(const amr::Config& cfg);

/// Serializes this rank's owned blocks (keys + raw cell data).
std::vector<std::byte> serialize_rank_blocks(const amr::Mesh& mesh);

/// Collective assembly: every rank passes its blob; rank 0 gathers them and
/// returns the complete checkpoint image (the exact byte sequence a
/// checkpoint file holds). Ranks != 0 return an empty vector. All ranks
/// must pass an identical `state` (it is serialized once, by rank 0).
std::vector<std::byte> build_checkpoint(HardenedComm& comm, const CheckpointState& state,
                                        const std::vector<std::byte>& rank_blob);

/// Atomically writes an assembled image to `path` (tmp + rename). Only the
/// rank holding the image (rank 0 after build_checkpoint) should call this.
void write_checkpoint_file(const std::string& path, std::span<const std::byte> image);

/// Collective write: build_checkpoint + write_checkpoint_file on rank 0.
void write_checkpoint(HardenedComm& comm, const std::string& path, const CheckpointState& state,
                      const std::vector<std::byte>& rank_blob);

/// Validates the header + global state of an in-memory image. Throws
/// dfamr::Error on a bad magic, unsupported version, or truncated input.
CheckpointState read_checkpoint_state(std::span<const std::byte> image);
/// Same, reading the image from a file.
CheckpointState read_checkpoint_state(const std::string& path);

/// Reads one rank's block section of an in-memory image: (key, cell data)
/// pairs. Throws dfamr::Error where the section or a count in it does not
/// fit in the image; checking the keys and sizes against the mesh is the
/// caller's.
std::vector<std::pair<amr::BlockKey, std::vector<double>>> read_rank_blocks(
    std::span<const std::byte> image, int rank);
/// Same, reading the image from a file.
std::vector<std::pair<amr::BlockKey, std::vector<double>>> read_rank_blocks(
    const std::string& path, int rank);

}  // namespace dfamr::resilience
