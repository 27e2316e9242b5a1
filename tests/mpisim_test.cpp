// Tests for the in-process MPI substitute: matching semantics, ordering,
// wildcards, collectives, and multi-threaded use.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "mpisim/mpi.hpp"

namespace dfamr::mpi {
namespace {

TEST(MpiSim, PingPong) {
    World world(2);
    world.run([](Communicator& comm) {
        int value = 0;
        if (comm.rank() == 0) {
            value = 99;
            comm.send(&value, sizeof value, 1, 7);
            comm.recv(&value, sizeof value, 1, 8);
            EXPECT_EQ(value, 100);
        } else {
            comm.recv(&value, sizeof value, 0, 7);
            EXPECT_EQ(value, 99);
            ++value;
            comm.send(&value, sizeof value, 0, 8);
        }
    });
    EXPECT_EQ(world.messages_delivered(), 2u);
}

TEST(MpiSim, NonBlockingRoundTrip) {
    World world(2);
    world.run([](Communicator& comm) {
        std::vector<double> buf(64);
        if (comm.rank() == 0) {
            std::iota(buf.begin(), buf.end(), 0.0);
            Request req = comm.isend(buf.data(), buf.size() * sizeof(double), 1, 3);
            req.wait();
        } else {
            Request req = comm.irecv(buf.data(), buf.size() * sizeof(double), 0, 3);
            Status st;
            req.wait(&st);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 3);
            EXPECT_EQ(st.bytes, 64 * sizeof(double));
            EXPECT_DOUBLE_EQ(buf[63], 63.0);
        }
    });
}

TEST(MpiSim, RecvPostedBeforeSend) {
    World world(2);
    world.run([](Communicator& comm) {
        int v = 0;
        if (comm.rank() == 1) {
            Request req = comm.irecv(&v, sizeof v, 0, 5);
            comm.barrier();  // ensure recv is posted before the send happens
            req.wait();
            EXPECT_EQ(v, 17);
        } else {
            comm.barrier();
            v = 17;
            comm.send(&v, sizeof v, 1, 5);
        }
    });
}

TEST(MpiSim, NonOvertakingSameSourceSameTag) {
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            for (int i = 0; i < 50; ++i) comm.send(&i, sizeof i, 1, 1);
        } else {
            for (int i = 0; i < 50; ++i) {
                int v = -1;
                comm.recv(&v, sizeof v, 0, 1);
                EXPECT_EQ(v, i);
            }
        }
    });
}

TEST(MpiSim, TagsSelectMessages) {
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            int a = 1, b = 2;
            comm.send(&a, sizeof a, 1, 10);
            comm.send(&b, sizeof b, 1, 20);
        } else {
            int v = 0;
            comm.recv(&v, sizeof v, 0, 20);  // out of arrival order, by tag
            EXPECT_EQ(v, 2);
            comm.recv(&v, sizeof v, 0, 10);
            EXPECT_EQ(v, 1);
        }
    });
}

TEST(MpiSim, WildcardSourceAndTag) {
    World world(3);
    world.run([](Communicator& comm) {
        if (comm.rank() != 0) {
            const int v = comm.rank() * 100;
            comm.send(&v, sizeof v, 0, comm.rank());
        } else {
            int total = 0;
            for (int i = 0; i < 2; ++i) {
                int v = 0;
                Status st;
                comm.recv(&v, sizeof v, kAnySource, kAnyTag, &st);
                EXPECT_EQ(v, st.source * 100);
                EXPECT_EQ(st.tag, st.source);
                total += v;
            }
            EXPECT_EQ(total, 300);
        }
    });
}

TEST(MpiSim, WaitAnyReturnsCompletedIndex) {
    World world(3);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<int> bufs(2, -1);
            std::vector<Request> reqs;
            reqs.push_back(comm.irecv(&bufs[0], sizeof(int), 1, 0));
            reqs.push_back(comm.irecv(&bufs[1], sizeof(int), 2, 0));
            int seen = 0;
            while (true) {
                Status st;
                const int idx = wait_any(std::span<Request>(reqs), &st);
                if (idx == kUndefined) break;
                EXPECT_EQ(bufs[static_cast<std::size_t>(idx)], st.source);
                ++seen;
            }
            EXPECT_EQ(seen, 2);
        } else {
            const int v = comm.rank();
            comm.send(&v, sizeof v, 0, 0);
        }
    });
}

TEST(MpiSim, WaitAllDrains) {
    World world(2);
    world.run([](Communicator& comm) {
        constexpr int kN = 20;
        if (comm.rank() == 0) {
            std::vector<Request> reqs;
            std::vector<int> vals(kN);
            for (int i = 0; i < kN; ++i) {
                vals[static_cast<std::size_t>(i)] = i;
                reqs.push_back(comm.isend(&vals[static_cast<std::size_t>(i)], sizeof(int), 1, i));
            }
            wait_all(std::span<Request>(reqs));
        } else {
            std::vector<Request> reqs;
            std::vector<int> vals(kN, -1);
            for (int i = 0; i < kN; ++i) {
                reqs.push_back(comm.irecv(&vals[static_cast<std::size_t>(i)], sizeof(int), 0, i));
            }
            wait_all(std::span<Request>(reqs));
            for (int i = 0; i < kN; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], i);
        }
    });
}

TEST(MpiSim, IprobeSeesPendingMessage) {
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            int v = 5;
            comm.send(&v, sizeof v, 1, 9);
            comm.barrier();
        } else {
            comm.barrier();
            Status st;
            EXPECT_TRUE(comm.iprobe(0, 9, &st));
            EXPECT_EQ(st.bytes, sizeof(int));
            EXPECT_FALSE(comm.iprobe(0, 10));
            int v = 0;
            comm.recv(&v, sizeof v, 0, 9);
            EXPECT_FALSE(comm.iprobe(kAnySource, kAnyTag));
        }
    });
}

TEST(MpiSim, TruncationThrows) {
    World world(2);
    EXPECT_THROW(world.run([](Communicator& comm) {
        std::int64_t big = 1;
        if (comm.rank() == 0) {
            comm.send(&big, sizeof big, 1, 0);
        } else {
            char small = 0;
            comm.recv(&small, sizeof small, 0, 0);
        }
    }),
                 Error);
}

TEST(MpiSim, TruncatedDeliveryFailsTheReceiveNotTheSend) {
    // The receive is posted first, so the sender's thread delivers into it:
    // the sender carries on, and the receiver's wait raises the error.
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 1) {
            std::int64_t small = 0;
            Request req = comm.irecv(&small, sizeof small, 0, 0);
            comm.barrier();
            // Bounded, so a delivery that never completes the receive
            // fails here instead of hanging.
            EXPECT_THROW(req.wait_for(5'000'000'000), Error);
            EXPECT_EQ(small, 0);
        } else {
            const std::int64_t big[2] = {1, 2};
            comm.barrier();
            EXPECT_NO_THROW(comm.isend(big, sizeof big, 1, 0).wait());
        }
    });
}

class CollectiveTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest, ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& pinfo) { return "ranks" + std::to_string(pinfo.param); });

TEST_P(CollectiveTest, AllreduceSum) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const double in[2] = {static_cast<double>(comm.rank() + 1), 1.0};
        double out[2] = {};
        comm.allreduce(in, out, 2, Op::Sum);
        const int n = comm.size();
        EXPECT_DOUBLE_EQ(out[0], n * (n + 1) / 2.0);
        EXPECT_DOUBLE_EQ(out[1], static_cast<double>(n));
    });
}

TEST_P(CollectiveTest, AllreduceMaxMin) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const std::int64_t v = comm.rank();
        std::int64_t mx = 0, mn = 0;
        comm.allreduce(&v, &mx, 1, Op::Max);
        comm.allreduce(&v, &mn, 1, Op::Min);
        EXPECT_EQ(mx, comm.size() - 1);
        EXPECT_EQ(mn, 0);
    });
}

TEST_P(CollectiveTest, Bcast) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const int root = comm.size() - 1;
        int payload[3] = {0, 0, 0};
        if (comm.rank() == root) {
            payload[0] = 11;
            payload[1] = 22;
            payload[2] = 33;
        }
        comm.bcast(payload, sizeof payload, root);
        EXPECT_EQ(payload[0], 11);
        EXPECT_EQ(payload[2], 33);
    });
}

TEST_P(CollectiveTest, Allgather) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const int mine = comm.rank() * 7;
        std::vector<int> all(static_cast<std::size_t>(comm.size()), -1);
        comm.allgather(&mine, sizeof mine, all.data());
        for (int r = 0; r < comm.size(); ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 7);
    });
}

TEST_P(CollectiveTest, Alltoall) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const int n = comm.size();
        std::vector<int> in(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(n), -1);
        for (int r = 0; r < n; ++r) in[static_cast<std::size_t>(r)] = comm.rank() * 100 + r;
        comm.alltoall(in.data(), sizeof(int), out.data());
        for (int r = 0; r < n; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], r * 100 + comm.rank());
    });
}

TEST_P(CollectiveTest, ReduceToRoot) {
    World world(GetParam());
    world.run([](Communicator& comm) {
        const double v = 1.5;
        double out = -1;
        comm.reduce(&v, &out, 1, Op::Sum, 0);
        if (comm.rank() == 0) { EXPECT_DOUBLE_EQ(out, 1.5 * comm.size()); }
    });
}

TEST_P(CollectiveTest, BarrierSeparatesPhases) {
    World world(GetParam());
    std::atomic<int> before{0};
    world.run([&](Communicator& comm) {
        ++before;
        comm.barrier();
        EXPECT_EQ(before.load(), comm.size());
        comm.barrier();
    });
}

TEST(MpiSimThreaded, ConcurrentSendsFromManyThreadsPerRank) {
    // MPI_THREAD_MULTIPLE-style usage: several threads of a rank post
    // operations concurrently (this is what TAMPI communication tasks do).
    World world(2);
    constexpr int kThreads = 4;
    constexpr int kMsgs = 50;
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            std::vector<std::thread> senders;
            for (int t = 0; t < kThreads; ++t) {
                senders.emplace_back([&comm, t] {
                    for (int i = 0; i < kMsgs; ++i) {
                        const int v = t * kMsgs + i;
                        comm.send(&v, sizeof v, 1, t);  // tag = thread id
                    }
                });
            }
            for (auto& s : senders) s.join();
        } else {
            std::vector<std::thread> receivers;
            for (int t = 0; t < kThreads; ++t) {
                receivers.emplace_back([&comm, t] {
                    for (int i = 0; i < kMsgs; ++i) {
                        int v = -1;
                        comm.recv(&v, sizeof v, 0, t);
                        EXPECT_EQ(v, t * kMsgs + i);  // per-tag order preserved
                    }
                });
            }
            for (auto& r : receivers) r.join();
        }
    });
    EXPECT_EQ(world.messages_delivered(), kThreads * kMsgs);
}

TEST(MpiSim, RankFailurePropagatesWithoutHanging) {
    World world(2);
    EXPECT_THROW(world.run([](Communicator& comm) {
        if (comm.rank() == 0) throw Error("rank 0 died");
        int v;
        comm.recv(&v, sizeof v, 0, 0);  // would hang forever without abort
    }),
                 Error);
}

TEST(MpiSim, ZeroByteMessages) {
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            comm.send(nullptr, 0, 1, 4);
        } else {
            Status st;
            comm.recv(nullptr, 0, 0, 4, &st);
            EXPECT_EQ(st.bytes, 0u);
        }
    });
}

// ----- zero-copy send/receive (TxBuffer / RxView) ---------------------------

std::vector<std::byte> tx_pattern(std::size_t n) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 13 + 5) & 0xff);
    return v;
}

TEST(TxView, MakeTxBufferPayloadIsAlignedForDoubles) {
    const TxBuffer tx = make_tx_buffer(96);
    ASSERT_EQ(tx.payload.size(), 96u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tx.payload.data()) % alignof(double), 0u);
    // The payload lives inside the frame storage, right after the header.
    EXPECT_GE(tx.storage->size(), tx.payload.size());
}

TEST(TxView, TxToPostedViewDeliversInPlace) {
    World world(2);
    world.run([](Communicator& comm) {
        const auto bytes = tx_pattern(256);
        if (comm.rank() == 1) {
            RxView view;
            Request req = comm.irecv_view(&view, 1024, 0, 6);
            comm.send(nullptr, 0, 0, 7);  // recv is posted: go
            Status st;
            req.wait(&st);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 6);
            ASSERT_EQ(view.payload.size(), 256u);
            EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(), bytes.begin()));
            // The view aliases the delivered frame, not a user buffer.
            ASSERT_NE(view.storage, nullptr);
        } else {
            comm.recv(nullptr, 0, 1, 7);
            TxBuffer tx = make_tx_buffer(256);
            std::copy(bytes.begin(), bytes.end(), tx.payload.begin());
            comm.isend_tx(tx, 1, 6).wait();
        }
    });
    // In-process the plain path does exactly one memcpy (sender buffer into
    // the posted receive buffer at match time); handing the frame over
    // elides it. The tiny tag-7 go-message is plain send/recv: no elision.
    EXPECT_EQ(world.net_counters().copies_elided, 1u);
}

TEST(TxView, TxToUnexpectedViewDelivers) {
    World world(2);
    world.run([](Communicator& comm) {
        const auto bytes = tx_pattern(64);
        if (comm.rank() == 0) {
            TxBuffer tx = make_tx_buffer(64);
            std::copy(bytes.begin(), bytes.end(), tx.payload.begin());
            comm.isend_tx(tx, 1, 9).wait();
        }
        comm.barrier();  // the message is parked unexpected before the view posts
        if (comm.rank() == 1) {
            RxView view;
            Status st;
            comm.irecv_view(&view, 64, 0, 9).wait(&st);
            EXPECT_EQ(st.bytes, 64u);
            EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(), bytes.begin()));
        }
    });
}

TEST(TxView, PlainSendIntoViewRecv) {
    World world(2);
    world.run([](Communicator& comm) {
        const auto bytes = tx_pattern(128);
        if (comm.rank() == 0) {
            comm.send(bytes.data(), bytes.size(), 1, 2);
        } else {
            RxView view;
            comm.irecv_view(&view, 128, 0, 2).wait();
            EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(), bytes.begin()));
        }
    });
}

TEST(TxView, TxIntoPlainRecv) {
    World world(2);
    world.run([](Communicator& comm) {
        const auto bytes = tx_pattern(80);
        if (comm.rank() == 0) {
            TxBuffer tx = make_tx_buffer(80);
            std::copy(bytes.begin(), bytes.end(), tx.payload.begin());
            comm.isend_tx(tx, 1, 3).wait();
        } else {
            std::vector<std::byte> buf(80);
            Status st;
            comm.recv(buf.data(), buf.size(), 0, 3, &st);
            EXPECT_EQ(st.bytes, 80u);
            EXPECT_EQ(buf, bytes);
        }
    });
}

TEST(TxView, ViewTruncationThrows) {
    World world(2);
    world.run([](Communicator& comm) {
        if (comm.rank() == 0) {
            TxBuffer tx = make_tx_buffer(512);
            comm.isend_tx(tx, 1, 8).wait();
        }
        comm.barrier();
        if (comm.rank() == 1) {
            RxView view;
            EXPECT_THROW(comm.irecv_view(&view, 16, 0, 8).wait(), Error);
        }
    });
}

}  // namespace
}  // namespace dfamr::mpi
