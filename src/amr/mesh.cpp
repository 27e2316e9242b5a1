#include "amr/mesh.hpp"

#include <algorithm>
#include <utility>

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

StreamLayout::StreamLayout(std::array<std::span<const NeighborExchange>, 3> neighbors,
                           int group_vars, bool separate_buffers)
    : group_vars_(group_vars) {
    for (std::size_t d = 0; d < 3; ++d) {
        // Shared storage is sized for the largest direction.
        const int storage = separate_buffers ? static_cast<int>(d) : 0;
        std::size_t send_total = 0, recv_total = 0;
        for (const NeighborExchange& ex : neighbors[d]) {
            const auto send = static_cast<std::size_t>(ex.send_values * group_vars);
            const auto recv = static_cast<std::size_t>(ex.recv_values * group_vars);
            send_[d].push_back({storage, send_total, send});
            recv_[d].push_back({storage, recv_total, recv});
            send_total += send;
            recv_total += recv;
        }
        const auto s = static_cast<std::size_t>(storage);
        send_size_[s] = std::max(send_size_[s], send_total);
        recv_size_[s] = std::max(recv_size_[s], recv_total);
    }
}

CommBuffers::CommBuffers(StreamLayout layout) : layout_(std::move(layout)) {
    for (std::size_t s = 0; s < 3; ++s) {
        send_[s].resize(layout_.send_size_[s]);
        recv_[s].resize(layout_.recv_size_[s]);
    }
}

std::span<double> CommBuffers::send_stream(int direction, int neighbor_index) {
    const auto& s = layout_.send(direction, static_cast<std::size_t>(neighbor_index));
    return send_storage(s.storage).subspan(s.offset, s.size);
}

std::span<double> CommBuffers::recv_stream(int direction, int neighbor_index) {
    const auto& s = layout_.recv(direction, static_cast<std::size_t>(neighbor_index));
    return recv_storage(s.storage).subspan(s.offset, s.size);
}

}  // namespace dfamr::amr
