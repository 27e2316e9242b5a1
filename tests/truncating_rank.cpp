// Rank program for net_process_test, run as two ranks by dfamr_mpirun: rank
// 0 sends 16 bytes that rank 1 receives into an 8-byte buffer. The message
// reaches rank 1 on its transport's receive thread; rank 1 must fail with
// its receive's error and exit 1, as the mini-app does on a rank error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "mpisim/mpi.hpp"

int main() {
    using namespace dfamr::mpi;
    try {
        WorldOptions opts;
        const char* transport = std::getenv("DFAMR_TRANSPORT");
        opts.transport = transport != nullptr && std::string(transport) == "shm"
                             ? TransportKind::Shm
                             : TransportKind::Tcp;
        World world(2, opts);
        world.run([](Communicator& comm) {
            if (comm.rank() == 1) {
                std::int64_t small = 0;
                Request req = comm.irecv(&small, sizeof small, 0, 0);
                comm.barrier();
                req.wait();
            } else {
                const std::int64_t big[2] = {1, 2};
                comm.barrier();
                comm.send(big, sizeof big, 1, 0);
            }
        });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
