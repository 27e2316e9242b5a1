#include "amr/mesh.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dfamr::amr {

Mesh::Mesh(const Config& cfg, int rank)
    : Mesh(cfg, rank, std::make_shared<BlockArena>(static_cast<std::size_t>(
                          BlockShape{cfg.nx, cfg.ny, cfg.nz, cfg.num_vars}.total_cells()))) {}

Mesh::Mesh(const Config& cfg, int rank, std::shared_ptr<BlockArena> arena)
    : cfg_(cfg),
      rank_(rank),
      shape_{cfg.nx, cfg.ny, cfg.nz, cfg.num_vars},
      arena_(std::move(arena)),
      structure_(cfg) {
    DFAMR_REQUIRE(rank >= 0 && rank < cfg.num_ranks(), "rank out of range");
    DFAMR_REQUIRE(arena_ != nullptr &&
                      arena_->buffer_doubles() == static_cast<std::size_t>(shape_.total_cells()),
                  "block arena buffers do not match the block shape");
}

void Mesh::init_blocks() {
    blocks_.clear();
    for (const BlockKey& key : structure_.blocks_of(rank_)) {
        auto b = make_block(key);
        b->init_cells(structure_.box(key), cfg_.seed);
        blocks_.emplace(key, std::move(b));
    }
}

Block& Mesh::block(const BlockKey& key) {
    auto it = blocks_.find(key);
    DFAMR_REQUIRE(it != blocks_.end(), "rank does not own the requested block");
    return *it->second;
}

const Block& Mesh::block(const BlockKey& key) const {
    auto it = blocks_.find(key);
    DFAMR_REQUIRE(it != blocks_.end(), "rank does not own the requested block");
    return *it->second;
}

std::vector<BlockKey> Mesh::owned_keys() const {
    std::vector<BlockKey> keys;
    keys.reserve(blocks_.size());
    for (const auto& [key, block_ptr] : blocks_) keys.push_back(key);
    return keys;
}

void Mesh::adopt(std::unique_ptr<Block> b) {
    DFAMR_REQUIRE(b != nullptr, "cannot adopt a null block");
    const BlockKey key = b->key();
    DFAMR_REQUIRE(blocks_.count(key) == 0, "adopting a block the rank already owns");
    blocks_.emplace(key, std::move(b));
}

std::unique_ptr<Block> Mesh::release(const BlockKey& key) {
    auto it = blocks_.find(key);
    DFAMR_REQUIRE(it != blocks_.end(), "releasing a block the rank does not own");
    std::unique_ptr<Block> b = std::move(it->second);
    blocks_.erase(it);
    return b;
}

std::unique_ptr<Block> Mesh::make_block(const BlockKey& key) const {
    return std::make_unique<Block>(key, shape_, arena_);
}

void Mesh::split_block(const BlockKey& parent) {
    std::unique_ptr<Block> parent_block = release(parent);
    for (int octant = 0; octant < 8; ++octant) {
        const BlockKey child_key = parent.child(octant, structure_.max_level());
        auto child = make_block(child_key);
        child->fill_from_parent(*parent_block, octant);
        blocks_.emplace(child_key, std::move(child));
    }
}

void Mesh::merge_children(const BlockKey& parent) {
    auto merged = make_block(parent);
    for (int octant = 0; octant < 8; ++octant) {
        const BlockKey child_key = parent.child(octant, structure_.max_level());
        std::unique_ptr<Block> child = release(child_key);
        merged->absorb_child(*child, octant);
    }
    blocks_.emplace(parent, std::move(merged));
}

double Mesh::local_checksum(int var_begin, int var_end) const {
    double sum = 0;
    for (const auto& [key, block_ptr] : blocks_) {
        sum += block_ptr->checksum(var_begin, var_end);
    }
    return sum;
}

std::int64_t Mesh::flops_per_var_sweep() const {
    return static_cast<std::int64_t>(blocks_.size()) * 7 * cfg_.cells_interior();
}

CommBuffers::CommBuffers(const CommPlan& plan, int group_vars, bool separate_buffers)
    : separate_(separate_buffers) {
    std::size_t max_send = 0, max_recv = 0;
    for (int d = 0; d < 3; ++d) {
        DirStorage& dir = dirs_[static_cast<std::size_t>(d)];
        std::size_t send_total = 0, recv_total = 0;
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            dir.send_offsets.push_back(send_total);
            dir.recv_offsets.push_back(recv_total);
            dir.send_sizes.push_back(static_cast<std::size_t>(ex.send_values) *
                                     static_cast<std::size_t>(group_vars));
            dir.recv_sizes.push_back(static_cast<std::size_t>(ex.recv_values) *
                                     static_cast<std::size_t>(group_vars));
            send_total += dir.send_sizes.back();
            recv_total += dir.recv_sizes.back();
        }
        if (separate_) {
            dir.send.resize(send_total);
            dir.recv.resize(recv_total);
        }
        max_send = std::max(max_send, send_total);
        max_recv = std::max(max_recv, recv_total);
    }
    if (!separate_) {
        // One buffer pair shared by all directions — the reference layout
        // whose aliasing creates the false inter-direction dependencies the
        // paper's --separate_buffers removes.
        dirs_[0].send.resize(max_send);
        dirs_[0].recv.resize(max_recv);
    }
}

std::span<double> CommBuffers::send_stream(int direction, int neighbor_index) {
    DirStorage& layout = dirs_[static_cast<std::size_t>(direction)];
    DirStorage& storage = dirs_[static_cast<std::size_t>(storage_index(direction))];
    const auto i = static_cast<std::size_t>(neighbor_index);
    return {storage.send.data() + layout.send_offsets[i], layout.send_sizes[i]};
}

std::span<double> CommBuffers::recv_stream(int direction, int neighbor_index) {
    DirStorage& layout = dirs_[static_cast<std::size_t>(direction)];
    DirStorage& storage = dirs_[static_cast<std::size_t>(storage_index(direction))];
    const auto i = static_cast<std::size_t>(neighbor_index);
    return {storage.recv.data() + layout.recv_offsets[i], layout.recv_sizes[i]};
}

}  // namespace dfamr::amr
