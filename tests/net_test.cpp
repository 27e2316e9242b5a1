// Wire transport tests: framing, loopback worlds (every rank a thread, each
// with a real TCP endpoint on localhost or a shared-memory ring mesh),
// rendezvous threshold behavior, MPI non-overtaking order over the wire,
// collectives parity, fault injection + retry, the copy and delivery
// counters of every send/receive pairing, malformed frames from a peer, the
// wait_any_for timeout-vs-abort contract, the shm ring, and the coalescing /
// zero-copy fast-path goldens.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/variants.hpp"
#include "mpisim/mpi.hpp"
#include "net/endpoint.hpp"
#include "net/shm_ring.hpp"
#include "net/shm_transport.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/hardened_comm.hpp"

namespace dfamr {
namespace {

using mpi::Communicator;
using mpi::Status;
using mpi::TransportKind;
using mpi::World;
using mpi::WorldOptions;

WorldOptions tcp_options(std::size_t rendezvous_threshold = 64 * 1024) {
    WorldOptions opts;
    opts.transport = TransportKind::Tcp;
    opts.rendezvous_threshold = rendezvous_threshold;
    // Tests must behave the same under dfamr_mpirun and standalone.
    opts.ignore_launch_env = true;
    return opts;
}

std::vector<std::byte> pattern(std::size_t n, unsigned seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
    }
    return v;
}

// ---- wire format ---------------------------------------------------------

TEST(NetWire, HeaderRoundTrip) {
    net::FrameHeader h;
    h.kind = net::FrameKind::Rts;
    h.src = 3;
    h.tag = 0x1234;
    h.seq = 77;
    h.payload_bytes = 0;
    h.aux = 1 << 20;
    std::byte buf[net::kHeaderBytes];
    net::encode_header(h, buf);
    const net::FrameHeader d = net::decode_header(buf);
    EXPECT_EQ(d.magic, net::kWireMagic);
    EXPECT_EQ(d.kind, net::FrameKind::Rts);
    EXPECT_EQ(d.src, 3);
    EXPECT_EQ(d.tag, 0x1234);
    EXPECT_EQ(d.seq, 77u);
    EXPECT_EQ(d.payload_bytes, 0u);
    EXPECT_EQ(d.aux, static_cast<std::uint64_t>(1) << 20);
}

// ---- loopback basics -----------------------------------------------------

TEST(NetLoopback, EagerPingPong) {
    World world(2, tcp_options());
    world.run([](Communicator& comm) {
        const int peer = 1 - comm.rank();
        const auto out = pattern(256, static_cast<unsigned>(comm.rank()));
        std::vector<std::byte> in(256);
        if (comm.rank() == 0) {
            comm.send(out.data(), out.size(), peer, 5);
            Status st;
            comm.recv(in.data(), in.size(), peer, 6, &st);
            EXPECT_EQ(st.source, 1);
            EXPECT_EQ(st.tag, 6);
            EXPECT_EQ(st.bytes, 256u);
            EXPECT_EQ(in, pattern(256, 1));
        } else {
            Status st;
            comm.recv(in.data(), in.size(), peer, 5, &st);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(in, pattern(256, 0));
            comm.send(out.data(), out.size(), peer, 6);
        }
    });
    const net::NetCounters c = world.net_counters();
    EXPECT_GT(c.frames_sent, 0u);
    EXPECT_GT(c.bytes_received, 0u);
}

class NetBothTransports : public ::testing::TestWithParam<TransportKind> {
protected:
    WorldOptions options() const {
        WorldOptions opts = tcp_options();
        opts.transport = GetParam();
        return opts;
    }
};

TEST_P(NetBothTransports, ZeroLengthMessageStatusBytes) {
    World world(2, options());
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            comm.send(nullptr, 0, 1, 9);
        } else {
            std::byte sentinel{0x5a};
            Status st;
            comm.recv(&sentinel, 1, 0, 9, &st);
            EXPECT_EQ(st.bytes, 0u);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 9);
            EXPECT_TRUE(st.ok);
            EXPECT_EQ(sentinel, std::byte{0x5a});  // untouched buffer
        }
    });
}

TEST_P(NetBothTransports, WildcardSourceAndTag) {
    World world(3, options());
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            int got = 0;
            for (int i = 0; i < 2; ++i) {
                int v = 0;
                Status st;
                comm.recv(&v, sizeof v, mpi::kAnySource, mpi::kAnyTag, &st);
                EXPECT_EQ(v, st.source * 100 + st.tag);
                ++got;
            }
            EXPECT_EQ(got, 2);
        } else {
            const int v = comm.rank() * 100 + comm.rank() + 40;
            comm.send(&v, sizeof v, 0, comm.rank() + 40);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Transports, NetBothTransports,
                         ::testing::Values(TransportKind::Inproc, TransportKind::Tcp,
                                           TransportKind::Shm));

// ---- shm ring ------------------------------------------------------------

TEST(ShmRing, ByteStreamSurvivesWrapAroundAndPartialIo) {
    constexpr std::uint32_t kCapacity = 16;
    alignas(64) std::byte segment[net::shm_segment_bytes(kCapacity)];
    net::ShmRing::init(segment, kCapacity, /*producer_pid=*/1234);
    net::ShmRing ring(segment, kCapacity);
    EXPECT_EQ(ring.producer_pid(), 1234);

    // Stream 5x the capacity through in awkward chunk sizes, reading
    // concurrently-in-spirit (interleaved), and require the byte stream to
    // come out exact: wraparound and partial writes must be invisible.
    const auto src = pattern(5 * kCapacity, 42);
    std::vector<std::byte> dst;
    std::size_t written = 0;
    while (dst.size() < src.size()) {
        if (written < src.size()) {
            const std::size_t chunk = std::min<std::size_t>(7, src.size() - written);
            written += ring.try_write(std::span(src).subspan(written, chunk));
        }
        std::byte buf[5];
        const std::size_t got = ring.try_read(buf);
        dst.insert(dst.end(), buf, buf + got);
    }
    EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()));
    EXPECT_EQ(ring.readable(), 0u);
}

TEST(ShmRing, FullRingAcceptsNothingUntilDrained) {
    constexpr std::uint32_t kCapacity = 8;
    alignas(64) std::byte segment[net::shm_segment_bytes(kCapacity)];
    net::ShmRing::init(segment, kCapacity, 1);
    net::ShmRing ring(segment, kCapacity);
    const auto src = pattern(kCapacity + 4, 3);
    EXPECT_EQ(ring.try_write(src), kCapacity);  // clamped to free space
    EXPECT_EQ(ring.try_write(std::span(src).subspan(kCapacity)), 0u);
    std::byte buf[3];
    ASSERT_EQ(ring.try_read(buf), 3u);
    EXPECT_EQ(ring.try_write(std::span(src).subspan(kCapacity)), 3u);  // freed
}

// ---- rendezvous ----------------------------------------------------------

TEST(NetLoopback, RendezvousThresholdCrossing) {
    constexpr std::size_t kThreshold = 1024;
    World world(2, tcp_options(kThreshold));
    world.run([](Communicator& comm) {
        const std::size_t small = 512, large = 8192;
        if (comm.rank() == 0) {
            const auto a = pattern(small, 1);
            const auto b = pattern(large, 2);
            comm.send(a.data(), a.size(), 1, 7);   // eager
            comm.send(b.data(), b.size(), 1, 7);   // rendezvous
        } else {
            std::vector<std::byte> a(small), b(large);
            Status st;
            comm.recv(a.data(), a.size(), 0, 7, &st);
            EXPECT_EQ(st.bytes, small);
            comm.recv(b.data(), b.size(), 0, 7, &st);
            EXPECT_EQ(st.bytes, large);
            EXPECT_EQ(a, pattern(small, 1));
            EXPECT_EQ(b, pattern(large, 2));
        }
    });
    const net::NetCounters c = world.net_counters();
    EXPECT_EQ(c.rendezvous, 1u);  // exactly the 8 KiB message
}

TEST(NetLoopback, RendezvousAtExactThreshold) {
    constexpr std::size_t kThreshold = 2048;
    World world(2, tcp_options(kThreshold));
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            const auto a = pattern(kThreshold, 3);  // == threshold: rendezvous
            comm.send(a.data(), a.size(), 1, 1);
        } else {
            std::vector<std::byte> a(kThreshold);
            comm.recv(a.data(), a.size(), 0, 1);
            EXPECT_EQ(a, pattern(kThreshold, 3));
        }
    });
    EXPECT_EQ(world.net_counters().rendezvous, 1u);
}

// ---- ordering ------------------------------------------------------------

// Mixed eager/rendezvous messages on one (source, tag) stream must arrive
// in post order even though rendezvous Data frames trail their Rts on the
// wire (receiver-side hold-back).
TEST(NetLoopback, NonOvertakingMixedSizesOneStream) {
    constexpr std::size_t kThreshold = 1024;
    constexpr int kMessages = 24;
    World world(2, tcp_options(kThreshold));
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            for (int i = 0; i < kMessages; ++i) {
                // Alternate large (rendezvous) and small (eager) so eager
                // frames constantly try to overtake pending Data.
                const std::size_t n = (i % 2 == 0) ? 4096 : 64;
                std::vector<std::byte> msg = pattern(n, static_cast<unsigned>(i));
                msg[0] = static_cast<std::byte>(i);  // sequence stamp
                comm.send(msg.data(), msg.size(), 1, 3);
            }
        } else {
            for (int i = 0; i < kMessages; ++i) {
                std::vector<std::byte> buf(8192);
                Status st;
                comm.recv(buf.data(), buf.size(), 0, 3, &st);
                ASSERT_EQ(static_cast<int>(buf[0]), i) << "message overtook its predecessor";
                const std::size_t expect = (i % 2 == 0) ? 4096 : 64;
                EXPECT_EQ(st.bytes, expect);
            }
        }
    });
    EXPECT_EQ(world.net_counters().rendezvous, kMessages / 2);
}

// Two concurrent senders into one receiver: per-source FIFO must hold, and
// every message must arrive exactly once (wildcard receive).
TEST(NetLoopback, NonOvertakingConcurrentSenders) {
    constexpr int kPerSender = 32;
    World world(3, tcp_options(512));
    world.run([&](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<int> next(3, 0);
            for (int i = 0; i < 2 * kPerSender; ++i) {
                std::vector<std::byte> buf(4096);
                Status st;
                comm.recv(buf.data(), buf.size(), mpi::kAnySource, 11, &st);
                ASSERT_GE(st.bytes, sizeof(int));
                int seq = 0;
                std::memcpy(&seq, buf.data(), sizeof seq);
                ASSERT_EQ(seq, next[static_cast<std::size_t>(st.source)])
                    << "per-source FIFO violated for source " << st.source;
                ++next[static_cast<std::size_t>(st.source)];
            }
            EXPECT_EQ(next[1], kPerSender);
            EXPECT_EQ(next[2], kPerSender);
        } else {
            for (int seq = 0; seq < kPerSender; ++seq) {
                const std::size_t n = (seq % 3 == 0) ? 2048 : sizeof(int);
                std::vector<std::byte> msg(n);
                std::memcpy(msg.data(), &seq, sizeof seq);
                comm.send(msg.data(), msg.size(), 0, 11);
            }
        }
    });
}

// ---- collectives over the wire -------------------------------------------

TEST(NetLoopback, CollectivesMatchInprocBitwise) {
    constexpr int kRanks = 4;
    constexpr std::size_t kCount = 17;
    using Doubles = std::vector<double>;
    // Per-rank inputs with awkward values so a different fold order would
    // show up in the bits.
    const auto input = [](int rank) {
        Doubles v(kCount);
        for (std::size_t i = 0; i < kCount; ++i) {
            v[i] = (rank + 1) * 0.1 + static_cast<double>(i) * 1e-7 + 1e-15 * rank;
        }
        return v;
    };
    const auto run_world = [&](TransportKind transport) {
        WorldOptions opts = tcp_options(64);  // tiny threshold: exercise rendezvous
        opts.transport = transport;
        World world(kRanks, opts);
        std::vector<Doubles> allreduce_out(kRanks, Doubles(kCount));
        std::vector<Doubles> reduce_out(kRanks, Doubles(kCount, -1.0));
        std::vector<Doubles> bcast_out(kRanks, Doubles(kCount));
        std::vector<Doubles> gather_out(kRanks, Doubles(kCount * kRanks));
        std::vector<Doubles> alltoall_out(kRanks, Doubles(kCount * kRanks));
        world.run([&](Communicator& comm) {
            const int r = comm.rank();
            const Doubles in = input(r);
            comm.barrier();
            comm.allreduce(in.data(), allreduce_out[r].data(), kCount, mpi::Op::Sum);
            comm.reduce(in.data(), reduce_out[r].data(), kCount, mpi::Op::Max, /*root=*/2);
            bcast_out[r] = r == 1 ? input(1) : Doubles(kCount);
            comm.bcast(bcast_out[r].data(), kCount * sizeof(double), /*root=*/1);
            comm.allgather(in.data(), kCount * sizeof(double), gather_out[r].data());
            Doubles scatter(kCount * kRanks);
            std::iota(scatter.begin(), scatter.end(), r * 1000.0);
            comm.alltoall(scatter.data(), kCount * sizeof(double), alltoall_out[r].data());
            comm.barrier();
        });
        return std::make_tuple(allreduce_out, reduce_out, bcast_out, gather_out, alltoall_out);
    };
    const auto inproc = run_world(TransportKind::Inproc);
    for (TransportKind wire : {TransportKind::Tcp, TransportKind::Shm}) {
        const auto t = run_world(wire);
        EXPECT_EQ(std::get<0>(inproc), std::get<0>(t));  // allreduce: bit-identical
        EXPECT_EQ(std::get<2>(inproc), std::get<2>(t));  // bcast
        EXPECT_EQ(std::get<3>(inproc), std::get<3>(t));  // allgather
        EXPECT_EQ(std::get<4>(inproc), std::get<4>(t));  // alltoall
        // reduce: only the root's output is defined.
        EXPECT_EQ(std::get<1>(inproc)[2], std::get<1>(t)[2]);
    }
}

// ---- fault injection over the wire ---------------------------------------

/// Drops the first `drops` sends on the given tag, then delivers.
class DropFirstN final : public mpi::FaultInjector {
public:
    DropFirstN(int tag, int drops) : tag_(tag), drops_(drops) {}
    mpi::FaultAction on_send(int, int, int tag) override {
        mpi::FaultAction act;
        if (tag == tag_ && count_.fetch_add(1) < drops_) act.drop = true;
        return act;
    }

private:
    int tag_;
    int drops_;
    std::atomic<int> count_{0};
};

TEST(NetLoopback, FaultDropThenRetryDelivers) {
    DropFirstN faults(/*tag=*/21, /*drops=*/2);
    World world(2, tcp_options(512), &faults);
    world.run([](Communicator& comm) {
        resilience::RetryPolicy policy;
        policy.backoff_ns = 1000;
        resilience::HardenedComm hc(comm, policy);
        if (comm.rank() == 0) {
            const auto msg = pattern(2048, 9);  // above threshold: rendezvous path
            hc.send(msg.data(), msg.size(), 1, 21);
        } else {
            std::vector<std::byte> buf(2048);
            mpi::Status st;
            hc.recv(buf.data(), buf.size(), 0, 21, &st);
            EXPECT_EQ(st.bytes, 2048u);
            EXPECT_EQ(buf, pattern(2048, 9));
        }
    });
}

TEST(NetLoopback, FaultDropThenRetryDeliversZeroCopy) {
    // A dropped isend_tx never reaches the wire and leaves the TxBuffer
    // untouched, so HardenedComm can re-post the same storage.
    DropFirstN faults(/*tag=*/22, /*drops=*/2);
    World world(2, tcp_options(512), &faults);
    world.run([](Communicator& comm) {
        resilience::RetryPolicy policy;
        policy.backoff_ns = 1000;
        resilience::HardenedComm hc(comm, policy);
        const auto msg = pattern(2048, 13);  // above threshold: rendezvous path
        if (comm.rank() == 0) {
            mpi::TxBuffer tx = mpi::make_tx_buffer(msg.size());
            std::copy(msg.begin(), msg.end(), tx.payload.begin());
            hc.isend_tx(tx, 1, 22).wait();
        } else {
            mpi::RxView view;
            mpi::Status st;
            hc.irecv_view(&view, 4096, 0, 22).wait(&st);
            EXPECT_EQ(st.bytes, 2048u);
            ASSERT_EQ(view.payload.size(), msg.size());
            EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(), msg.begin()));
        }
    });
}

TEST(NetLoopback, FaultDelayPreservesStreamOrder) {
    resilience::FaultConfig fc;
    fc.seed = 11;
    fc.delay_prob = 0.5;
    fc.max_delay_ns = 2'000'000;
    resilience::FaultPlan plan(fc);
    constexpr int kMessages = 40;
    World world(2, tcp_options(256), &plan);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            for (int i = 0; i < kMessages; ++i) {
                const std::size_t n = (i % 4 == 0) ? 1024 : 16;
                std::vector<std::byte> msg(n);
                msg[0] = static_cast<std::byte>(i);
                comm.send(msg.data(), msg.size(), 1, 2);
            }
        } else {
            for (int i = 0; i < kMessages; ++i) {
                std::vector<std::byte> buf(4096);
                mpi::Status st;
                comm.recv(buf.data(), buf.size(), 0, 2, &st);
                ASSERT_EQ(static_cast<int>(buf[0]), i)
                    << "delayed delivery reordered a stream over TCP";
            }
        }
    });
}

// ---- copy and delivery counters ------------------------------------------

enum class SendKind { Plain, Tx };
enum class RecvKind { Buffer, View };
enum class Order { PostedFirst, ParkedFirst };

// Expected copies_elided, indexed [send][recv]: one count per staging copy
// the plain path (isend into irecv) would have made. A message matched
// directly in-process costs the plain path one copy, which only a tx send
// into a view avoids. A message staged before its receive sees it (parked
// unexpected, sent over a wire, or held by the fault scheduler) costs the
// plain path two: isend_tx skips the buffering one, irecv_view the copy out.
constexpr std::uint64_t kElidedDirect[2][2] = {{0, 0}, {0, 1}};
constexpr std::uint64_t kElidedStaged[2][2] = {{0, 1}, {1, 2}};

// send, recv, order, transport, payload bytes, fault-delayed
using CounterParam = std::tuple<SendKind, RecvKind, Order, TransportKind, std::size_t, bool>;

class CopyCounters : public ::testing::TestWithParam<CounterParam> {};

TEST_P(CopyCounters, ElidedCopiesAndDeliveriesAreExact) {
    const auto [send, recv, order, transport, bytes, delayed] = GetParam();
    resilience::FaultConfig fc;
    fc.seed = 10;  // drops the message's first two attempts, then delays it
    fc.delay_prob = 1.0;
    fc.drop_prob = 0.3;
    resilience::FaultPlan plan(fc);
    WorldOptions opts = tcp_options(1024);
    opts.transport = transport;
    World world(2, opts, delayed ? &plan : nullptr);
    constexpr int kTag = 4;
    const auto msg = pattern(bytes, 17);
    std::atomic<bool> posted{false};
    world.run([&](Communicator& comm) {
        resilience::RetryPolicy policy;
        policy.backoff_ns = 1000;
        resilience::HardenedComm hc(comm, policy);
        if (comm.rank() == 0) {
            while (order == Order::PostedFirst && !posted.load()) std::this_thread::yield();
            if (send == SendKind::Plain) {
                hc.isend(msg.data(), msg.size(), 1, kTag).wait();
            } else {
                mpi::TxBuffer tx = mpi::make_tx_buffer(bytes);
                std::copy(msg.begin(), msg.end(), tx.payload.begin());
                hc.isend_tx(tx, 1, kTag).wait();
            }
            return;
        }
        while (order == Order::ParkedFirst && !comm.iprobe(0, kTag)) std::this_thread::yield();
        std::vector<std::byte> buf(bytes);
        mpi::RxView view;
        mpi::Request req = recv == RecvKind::Buffer ? hc.irecv(buf.data(), bytes, 0, kTag)
                                                    : hc.irecv_view(&view, bytes, 0, kTag);
        posted.store(true);
        Status st;
        req.wait(&st);
        EXPECT_EQ(st.bytes, bytes);
        if (recv == RecvKind::View) buf.assign(view.payload.begin(), view.payload.end());
        EXPECT_EQ(buf, msg);
    });
    const bool staged =
        transport != TransportKind::Inproc || order == Order::ParkedFirst || delayed;
    const auto s = static_cast<std::size_t>(send);
    const auto r = static_cast<std::size_t>(recv);
    EXPECT_EQ(world.net_counters().copies_elided, staged ? kElidedStaged[s][r] : kElidedDirect[s][r]);
    EXPECT_EQ(world.messages_delivered(), 1u);
    EXPECT_EQ(world.bytes_delivered(), bytes);
    // Dropped attempts count nothing; a dropped isend_tx is re-posted as is.
    if (delayed) {
        EXPECT_GT(plan.drops(), 0u);
    }
}

std::string counter_case_name(const ::testing::TestParamInfo<CounterParam>& info) {
    const auto [send, recv, order, transport, bytes, delayed] = info.param;
    const char* transports[] = {"Inproc", "Tcp", "Shm"};
    return std::string(send == SendKind::Plain ? "Plain" : "Tx") +
           (recv == RecvKind::Buffer ? "IntoBuffer" : "IntoView") +
           (order == Order::PostedFirst ? "Posted" : "Parked") +
           transports[static_cast<int>(transport)] + std::to_string(bytes) +
           (delayed ? "Delayed" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CopyCounters,
    ::testing::Combine(::testing::Values(SendKind::Plain, SendKind::Tx),
                       ::testing::Values(RecvKind::Buffer, RecvKind::View),
                       ::testing::Values(Order::PostedFirst, Order::ParkedFirst),
                       ::testing::Values(TransportKind::Inproc, TransportKind::Tcp,
                                         TransportKind::Shm),
                       ::testing::Values(std::size_t{256}, std::size_t{4096}),  // eager, rendezvous
                       ::testing::Values(false)),
    counter_case_name);

// Fault-delayed sends, retried through HardenedComm past dropped attempts:
// the scheduler stages every message, on every transport.
INSTANTIATE_TEST_SUITE_P(
    FaultDelayed, CopyCounters,
    ::testing::Combine(::testing::Values(SendKind::Plain, SendKind::Tx),
                       ::testing::Values(RecvKind::Buffer, RecvKind::View),
                       ::testing::Values(Order::PostedFirst, Order::ParkedFirst),
                       ::testing::Values(TransportKind::Inproc, TransportKind::Tcp),
                       ::testing::Values(std::size_t{4096}), ::testing::Values(true)),
    counter_case_name);

// ---- malformed frames: a protocol violation is an unclean peer loss ------

/// Records what a transport reports upward.
class CaptureSink final : public net::Sink {
public:
    void deliver(int, int, net::FrameBuf, std::span<const std::byte>) override { ++delivered; }
    void peer_gone(int peer, bool clean) override {
        {
            std::lock_guard lk(m_);
            gone_.emplace_back(peer, clean);
        }
        cv_.notify_all();
    }
    /// Waits (bounded) for peer_gone(peer, clean).
    bool wait_gone(int peer, bool clean) {
        std::unique_lock lk(m_);
        return cv_.wait_for(lk, std::chrono::seconds(10), [&] {
            return std::find(gone_.begin(), gone_.end(), std::make_pair(peer, clean)) !=
                   gone_.end();
        });
    }

    std::atomic<int> delivered{0};

private:
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<std::pair<int, bool>> gone_;
};

std::vector<std::byte> frame_bytes(net::FrameKind kind, std::uint32_t seq = 0,
                                   std::uint64_t payload_bytes = 0, std::uint64_t aux = 0,
                                   std::vector<std::byte> payload = {}) {
    net::FrameHeader h;
    h.kind = kind;
    h.src = 1;
    h.seq = seq;
    h.payload_bytes = payload_bytes;
    h.aux = aux;
    std::vector<std::byte> out(net::kHeaderBytes);
    net::encode_header(h, out.data());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::vector<std::byte> malformed_frame(int which) {
    switch (which) {
        case 0: {  // Coalesced table claiming more entries than its payload holds
            std::vector<std::byte> table(net::kSubMsgEntryBytes + 8);
            net::encode_sub_entry(net::SubMsgEntry{3, 0, 8}, table.data());
            return frame_bytes(net::FrameKind::Coalesced, 0, table.size(), 5, table);
        }
        case 1:  // Cts for a rendezvous that was never posted
            return frame_bytes(net::FrameKind::Cts, 999);
        case 2:  // unknown frame kind
            return frame_bytes(static_cast<net::FrameKind>(42));
        case 3:  // a second Hello
            return frame_bytes(net::FrameKind::Hello);
        default:  // an Eager header announcing 2^62 payload bytes
            return frame_bytes(net::FrameKind::Eager, 0, std::uint64_t{1} << 62);
    }
}

class MalformedFrame : public ::testing::TestWithParam<int> {};

TEST_P(MalformedFrame, EndsThePeerAsAnUncleanLoss) {
    CaptureSink sink;
    net::Endpoint ep(0, 2, /*rendezvous_threshold=*/1024, &sink);
    // Play rank 1 over a raw socket: dial rank 0 and say Hello.
    net::Socket peer = net::dial({"127.0.0.1", ep.listen_port()}, /*attempts=*/50);
    net::write_all(peer, frame_bytes(net::FrameKind::Hello));
    ep.connect_mesh({{"127.0.0.1", ep.listen_port()}, {"127.0.0.1", 0}});
    // A rendezvous send the raw peer never grants.
    std::atomic<bool> sent{false};
    const auto payload = pattern(2048, 5);
    ep.send_rendezvous(1, 7, net::make_frame(payload.data(), payload.size()),
                       [&] { sent.store(true); });
    net::write_all(peer, malformed_frame(GetParam()));
    ASSERT_TRUE(sink.wait_gone(1, /*clean=*/false));
    EXPECT_TRUE(sent.load()) << "the pending rendezvous send was left hanging";
    EXPECT_EQ(sink.delivered.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Tcp, MalformedFrame, ::testing::Range(0, 5));

TEST(ShmMalformed, CorruptHeaderInInboundRingIsAnUncleanLoss) {
    CaptureSink sink;
    net::ShmOptions opts;
    opts.rank = 0;
    opts.nranks = 2;
    opts.ring_bytes = 1 << 16;
    opts.ns = "malformed" + std::to_string(static_cast<long>(::getpid()));
    net::ShmTransport tp(opts, &sink);
    // Play rank 1: create its outbound segment, which rank 0 reads as its
    // inbound ring. Our own pid as producer keeps the liveness probe quiet.
    const std::string name = "/dfamr_" + opts.ns + "_1to0";
    const std::size_t seg_bytes = net::shm_segment_bytes(opts.ring_bytes);
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(seg_bytes)), 0);
    void* base = ::mmap(nullptr, seg_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(base, MAP_FAILED);
    net::ShmRing::init(base, opts.ring_bytes, static_cast<std::int32_t>(::getpid()));
    net::ShmRing ring(base, opts.ring_bytes);
    tp.open_peers();  // maps and unlinks the segment
    std::atomic<bool> sent{false};
    const auto payload = pattern(2048, 6);
    tp.send_rendezvous(1, 7, net::make_frame(payload.data(), payload.size()),
                       [&] { sent.store(true); });
    auto bytes = frame_bytes(net::FrameKind::Hello);
    auto corrupt = frame_bytes(net::FrameKind::Eager, 0, 16);
    corrupt[0] = std::byte{0x77};  // bad magic
    bytes.insert(bytes.end(), corrupt.begin(), corrupt.end());
    ASSERT_EQ(ring.try_write(bytes), bytes.size());
    EXPECT_TRUE(sink.wait_gone(1, /*clean=*/false));
    EXPECT_TRUE(sent.load()) << "the pending rendezvous send was left hanging";
    EXPECT_EQ(sink.delivered.load(), 0);
    ::munmap(base, seg_bytes);
}

// ---- wait_any_for: kTimeout vs RankError ---------------------------------

class WaitAnyForSemantics : public ::testing::TestWithParam<TransportKind> {};

TEST_P(WaitAnyForSemantics, TimeoutLeavesRequestsValid) {
    WorldOptions opts = tcp_options();
    opts.transport = GetParam();
    World world(2, opts);
    world.run([](Communicator& comm) {
        if (comm.rank() != 0) {
            int v = 42;
            comm.send(&v, sizeof v, 0, 1);  // only tag 1; tag 2 never comes
            return;
        }
        int a = 0, b = 0;
        std::vector<mpi::Request> reqs = {comm.irecv(&a, sizeof a, 1, 1),
                                          comm.irecv(&b, sizeof b, 1, 2)};
        // First completion: the tag-1 message.
        mpi::Status st;
        const int idx = mpi::wait_any_for(reqs, 2'000'000'000, &st);
        ASSERT_EQ(idx, 0);
        EXPECT_EQ(a, 42);
        // The tag-2 receive can never complete: must time out, and the
        // request must remain valid (and cancelable) afterwards.
        const int idx2 = mpi::wait_any_for(reqs, 20'000'000, &st);
        EXPECT_EQ(idx2, mpi::kTimeout);
        ASSERT_TRUE(reqs[1].valid());
        EXPECT_TRUE(reqs[1].cancel());
    });
}

TEST_P(WaitAnyForSemantics, AbortBeatsTimeout) {
    WorldOptions opts = tcp_options();
    opts.transport = GetParam();
    World world(2, opts);
    std::atomic<bool> saw_timeout{false};
    EXPECT_THROW(
        world.run([&](Communicator& comm) {
            if (comm.rank() == 1) {
                throw Error("rank 1 dies");
            }
            int v = 0;
            std::vector<mpi::Request> reqs = {comm.irecv(&v, sizeof v, 1, 1)};
            // Give the abort time to propagate, then call with an already
            // expired deadline: a dead world must surface as RankError, not
            // as a benign kTimeout the caller would retry on.
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            const int idx = mpi::wait_any_for(reqs, 0, nullptr);
            saw_timeout.store(idx == mpi::kTimeout);
        }),
        mpi::RankError);
    EXPECT_FALSE(saw_timeout.load());
}

INSTANTIATE_TEST_SUITE_P(Transports, WaitAnyForSemantics,
                         ::testing::Values(TransportKind::Inproc, TransportKind::Tcp,
                                           TransportKind::Shm));

// ---- golden checksums: full mini-app over the wire -----------------------

amr::Config golden_config() {
    amr::Config cfg;
    cfg.npx = 2;
    cfg.npy = 1;
    cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;
    amr::ObjectSpec sphere;
    sphere.type = amr::ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    return cfg;
}

class GoldenOverTcp : public ::testing::TestWithParam<amr::Variant> {};

TEST_P(GoldenOverTcp, ChecksumsBitIdenticalToInproc) {
    const amr::Config cfg = golden_config();
    core::RunOptions inproc;
    inproc.ignore_launch_env = true;
    core::RunOptions tcp;
    tcp.transport = mpi::TransportKind::Tcp;
    tcp.rendezvous_threshold = 1024;  // low: force rendezvous traffic
    tcp.ignore_launch_env = true;
    const core::RunResult a = core::run_variant(cfg, GetParam(), nullptr, nullptr, inproc);
    const core::RunResult b = core::run_variant(cfg, GetParam(), nullptr, nullptr, tcp);
    ASSERT_TRUE(a.validation_ok);
    ASSERT_TRUE(b.validation_ok);
    ASSERT_EQ(a.checksums.size(), b.checksums.size());
    for (std::size_t i = 0; i < a.checksums.size(); ++i) {
        EXPECT_EQ(a.checksums[i], b.checksums[i]) << "checksum stage " << i;
    }
    EXPECT_EQ(a.net.frames_sent, 0u);  // inproc: nothing on the wire
    EXPECT_GT(b.net.frames_sent, 0u);
    EXPECT_GT(b.net.bytes_sent, 0u);
    EXPECT_GT(b.net.rendezvous, 0u);
}

TEST_P(GoldenOverTcp, ChaosChecksumsMatchFaultFree) {
    const amr::Config cfg = golden_config();
    core::RunOptions tcp;
    tcp.transport = mpi::TransportKind::Tcp;
    tcp.rendezvous_threshold = 1024;
    tcp.ignore_launch_env = true;
    core::RunOptions inproc;
    inproc.ignore_launch_env = true;
    resilience::FaultConfig fc;
    fc.seed = 5;
    fc.drop_prob = 0.02;
    fc.delay_prob = 0.05;
    fc.max_delay_ns = 500'000;
    resilience::FaultPlan plan(fc);
    const core::RunResult ref = core::run_variant(cfg, GetParam(), nullptr, nullptr, inproc);
    const core::RunResult chaos = core::run_variant(cfg, GetParam(), nullptr, &plan, tcp);
    ASSERT_TRUE(chaos.validation_ok);
    ASSERT_EQ(ref.checksums.size(), chaos.checksums.size());
    for (std::size_t i = 0; i < ref.checksums.size(); ++i) {
        EXPECT_EQ(ref.checksums[i], chaos.checksums[i]) << "checksum stage " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, GoldenOverTcp,
                         ::testing::Values(amr::Variant::MpiOnly, amr::Variant::ForkJoin,
                                           amr::Variant::TampiOss));

// ---- transport fast-path goldens: shm x coalesce x zero-copy -------------

// Every (variant, transport, coalesce, zero_copy) combination must produce
// checksums bit-identical to the plain in-process run: the fast paths are
// pure transport/copy optimizations with no numerical surface.
using FastPathParam = std::tuple<amr::Variant, TransportKind, bool, bool>;

class GoldenFastPaths : public ::testing::TestWithParam<FastPathParam> {};

TEST_P(GoldenFastPaths, ChecksumsBitIdenticalToInproc) {
    const auto [variant, transport, coalesce, zero_copy] = GetParam();
    amr::Config cfg = golden_config();
    core::RunOptions ref_opts;
    ref_opts.ignore_launch_env = true;
    const core::RunResult ref = core::run_variant(cfg, variant, nullptr, nullptr, ref_opts);

    cfg.zero_copy = zero_copy;
    core::RunOptions opts;
    opts.transport = transport;
    opts.rendezvous_threshold = 1024;  // low: fast paths cross into rendezvous
    opts.coalesce = coalesce;
    opts.ignore_launch_env = true;
    const core::RunResult got = core::run_variant(cfg, variant, nullptr, nullptr, opts);

    ASSERT_TRUE(got.validation_ok);
    ASSERT_EQ(ref.checksums.size(), got.checksums.size());
    for (std::size_t i = 0; i < ref.checksums.size(); ++i) {
        EXPECT_EQ(ref.checksums[i], got.checksums[i]) << "checksum stage " << i;
    }
    EXPECT_GT(got.net.frames_sent, 0u);
    if (!coalesce) {
        // The knob is really off: nothing may merge.
        EXPECT_EQ(got.net.coalesced_frames_sent, 0u);
        EXPECT_EQ(got.net.coalesced_messages, 0u);
    }
    if (zero_copy && variant != amr::Variant::TampiOss) {
        // Every wire send of a packed frame skips the staging copy, so the
        // counter is deterministic-positive (TAMPI ignores the knob: its
        // task dependencies are declared on persistent staging buffers).
        EXPECT_GT(got.net.copies_elided, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenFastPaths,
    ::testing::Combine(::testing::Values(amr::Variant::MpiOnly, amr::Variant::ForkJoin,
                                         amr::Variant::TampiOss),
                       ::testing::Values(TransportKind::Tcp, TransportKind::Shm),
                       ::testing::Bool(),    // coalesce
                       ::testing::Bool()));  // zero_copy

// Chaos over shm with both fast paths on: retry + hold-back must still
// reproduce the fault-free checksums bit for bit.
class ShmChaos : public ::testing::TestWithParam<amr::Variant> {};

TEST_P(ShmChaos, ChaosChecksumsMatchFaultFree) {
    amr::Config cfg = golden_config();
    core::RunOptions ref_opts;
    ref_opts.ignore_launch_env = true;
    const core::RunResult ref = core::run_variant(cfg, GetParam(), nullptr, nullptr, ref_opts);

    cfg.zero_copy = true;
    core::RunOptions shm;
    shm.transport = TransportKind::Shm;
    shm.rendezvous_threshold = 1024;
    shm.coalesce = true;
    shm.ignore_launch_env = true;
    resilience::FaultConfig fc;
    fc.seed = 5;
    fc.drop_prob = 0.02;
    fc.delay_prob = 0.05;
    fc.max_delay_ns = 500'000;
    resilience::FaultPlan plan(fc);
    const core::RunResult chaos = core::run_variant(cfg, GetParam(), nullptr, &plan, shm);
    ASSERT_TRUE(chaos.validation_ok);
    ASSERT_EQ(ref.checksums.size(), chaos.checksums.size());
    for (std::size_t i = 0; i < ref.checksums.size(); ++i) {
        EXPECT_EQ(ref.checksums[i], chaos.checksums[i]) << "checksum stage " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, ShmChaos,
                         ::testing::Values(amr::Variant::MpiOnly, amr::Variant::ForkJoin,
                                           amr::Variant::TampiOss));

}  // namespace
}  // namespace dfamr
