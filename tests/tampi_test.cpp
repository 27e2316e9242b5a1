// Tests for the Task-Aware MPI layer: request-to-task binding, transparent
// progress, blocking mode, and the hybrid pattern the paper builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "mpisim/mpi.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::tampi {
namespace {

using tasking::Dep;
using tasking::in;
using tasking::out;
using tasking::Runtime;

TEST(Tampi, IrecvReleasesDepsOnlyAfterArrival) {
    mpi::World world(2);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(2);
        Tampi tampi(rt);
        if (comm.rank() == 0) {
            // Delay the send so the receiver's task graph is built first.
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            const double v = 3.25;
            comm.send(&v, sizeof v, 1, 0);
        } else {
            double buf = 0;
            std::atomic<bool> recv_task_done{false};
            std::atomic<bool> consumer_saw_value{false};
            rt.submit(
                [&] {
                    tampi.irecv(comm, &buf, sizeof buf, 0, 0);
                    recv_task_done = true;  // body returns before the data arrives
                },
                {out(&buf, sizeof buf)}, "recv");
            rt.submit([&] { consumer_saw_value = (buf == 3.25); }, {in(&buf, sizeof buf)},
                      "consume");
            rt.taskwait();
            EXPECT_TRUE(recv_task_done.load());
            EXPECT_TRUE(consumer_saw_value.load());
        }
    });
}

TEST(Tampi, TruncatedBoundReceiveFailsAtTaskwait) {
    // The progress engine finds the receive failed: its task completes and
    // the next taskwait raises the truncation, as a task error would.
    mpi::World world(2);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(2);
        Tampi tampi(rt);
        if (comm.rank() == 0) {
            const double big[2] = {1, 2};
            comm.barrier();
            comm.send(big, sizeof big, 1, 0);
        } else {
            double small = 0;
            std::atomic<bool> posted{false};
            rt.submit(
                [&] {
                    tampi.irecv(comm, &small, sizeof small, 0, 0);
                    posted = true;
                },
                {out(&small, sizeof small)}, "recv");
            while (!posted.load()) std::this_thread::yield();
            comm.barrier();  // the receive is posted before the message leaves
            EXPECT_THROW(rt.taskwait(), Error);
        }
    });
}

TEST(Tampi, IsendCompletesEagerly) {
    mpi::World world(2);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(1);
        Tampi tampi(rt);
        if (comm.rank() == 0) {
            double v = 7.5;
            rt.submit([&] { tampi.isend(comm, &v, sizeof v, 1, 1); }, {in(&v, sizeof v)});
            rt.taskwait();
        } else {
            double r = 0;
            comm.recv(&r, sizeof r, 0, 1);
            EXPECT_DOUBLE_EQ(r, 7.5);
        }
    });
}

TEST(Tampi, ManyBindingsOnOneTask) {
    mpi::World world(2);
    constexpr int kMsgs = 16;
    world.run([](mpi::Communicator& comm) {
        Runtime rt(2);
        Tampi tampi(rt);
        if (comm.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            for (int i = 0; i < kMsgs; ++i) {
                const double v = i;
                comm.send(&v, sizeof v, 1, i);
            }
        } else {
            std::vector<double> buf(kMsgs, -1.0);
            double sum = -1;
            rt.submit(
                [&] {
                    // A task may bind multiple requests over its lifetime.
                    for (int i = 0; i < kMsgs; ++i) {
                        tampi.irecv(comm, &buf[static_cast<std::size_t>(i)], sizeof(double), 0, i);
                    }
                },
                {out(buf.data(), buf.size() * sizeof(double))});
            rt.submit([&] { sum = std::accumulate(buf.begin(), buf.end(), 0.0); },
                      {in(buf.data(), buf.size() * sizeof(double))});
            rt.taskwait();
            EXPECT_DOUBLE_EQ(sum, kMsgs * (kMsgs - 1) / 2.0);
        }
    });
}

TEST(Tampi, IwaitallBindsEveryRequest) {
    mpi::World world(2);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(2);
        Tampi tampi(rt);
        if (comm.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            for (int i = 0; i < 4; ++i) {
                const int v = i * 10;
                comm.send(&v, sizeof v, 1, i);
            }
        } else {
            std::vector<int> buf(4, -1);
            int check = 0;
            rt.submit(
                [&] {
                    std::vector<mpi::Request> reqs;
                    for (int i = 0; i < 4; ++i) {
                        reqs.push_back(
                            comm.irecv(&buf[static_cast<std::size_t>(i)], sizeof(int), 0, i));
                    }
                    tampi.iwaitall(std::span<mpi::Request>(reqs));
                },
                {out(buf.data(), buf.size() * sizeof(int))});
            rt.submit([&] { check = buf[0] + buf[1] + buf[2] + buf[3]; },
                      {in(buf.data(), buf.size() * sizeof(int))});
            rt.taskwait();
            EXPECT_EQ(check, 0 + 10 + 20 + 30);
        }
    });
}

TEST(Tampi, BlockingModePausesTaskNotWorker) {
    // One worker only: if blocking recv held the worker hostage, the sender
    // task (queued after it) could never run and this would deadlock.
    mpi::World world(1);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(1);
        Tampi tampi(rt);
        int payload = -1;
        std::atomic<bool> got{false};
        rt.submit(
            [&] {
                tampi.recv(comm, &payload, sizeof payload, 0, 0);
                got = payload == 123;
            },
            {}, "blocking-recv");
        rt.submit(
            [&] {
                const int v = 123;
                tampi.send(comm, &v, sizeof v, 0, 0);
            },
            {}, "send");
        rt.taskwait();
        EXPECT_TRUE(got.load());
    });
}

TEST(Tampi, PipelineOverlapAcrossPhases) {
    // The core paper pattern: per-"block" recv -> unpack -> compute chains
    // connected by dependencies, running while other blocks compute.
    mpi::World world(2);
    constexpr int kBlocks = 8;
    world.run([](mpi::Communicator& comm) {
        Runtime rt(3);
        Tampi tampi(rt);
        const int peer = 1 - comm.rank();
        std::vector<double> ghost(kBlocks, 0.0);    // "recv buffer"
        std::vector<double> mesh(kBlocks, 0.0);     // "mesh blocks"
        std::vector<double> sendbuf(kBlocks, 0.0);  // "send buffer"

        for (int b = 0; b < kBlocks; ++b) {
            const auto bi = static_cast<std::size_t>(b);
            // pack
            rt.submit([&, b, bi] { sendbuf[bi] = comm.rank() * 1000 + b; },
                      {out(&sendbuf[bi], sizeof(double))}, "pack");
            // send
            rt.submit([&, b, bi] { tampi.isend(comm, &sendbuf[bi], sizeof(double), peer, b); },
                      {in(&sendbuf[bi], sizeof(double))}, "send");
            // recv
            rt.submit([&, b, bi] { tampi.irecv(comm, &ghost[bi], sizeof(double), peer, b); },
                      {out(&ghost[bi], sizeof(double))}, "recv");
            // unpack/compute
            rt.submit([&, bi] { mesh[bi] = ghost[bi] + 0.5; },
                      {in(&ghost[bi], sizeof(double)), out(&mesh[bi], sizeof(double))}, "stencil");
        }
        rt.taskwait();
        for (int b = 0; b < kBlocks; ++b) {
            EXPECT_DOUBLE_EQ(mesh[static_cast<std::size_t>(b)], peer * 1000 + b + 0.5);
        }
        EXPECT_EQ(tampi.pending(), 0u);
    });
}

TEST(Tampi, AlreadyCompleteRequestFastPath) {
    mpi::World world(1);
    world.run([](mpi::Communicator& comm) {
        Runtime rt(1);
        Tampi tampi(rt);
        double v = 4.5, r = 0;
        comm.send(&v, sizeof v, 0, 0);  // self-message already delivered
        rt.submit(
            [&] {
                mpi::Request req = comm.irecv(&r, sizeof r, 0, 0);
                EXPECT_TRUE(req.test());
                tampi.iwait(std::move(req));  // must not register an event
            },
            {out(&r, sizeof r)});
        rt.taskwait();
        EXPECT_DOUBLE_EQ(r, 4.5);
        EXPECT_EQ(tampi.pending(), 0u);
    });
}

}  // namespace
}  // namespace dfamr::tampi
