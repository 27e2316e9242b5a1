#include "common/lockdep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace dfamr::lockdep {

namespace detail {

namespace {

constexpr int kMaxClasses = 64;

struct HeldLock {
    int cls = -1;
    std::uint32_t subrank = 0;
};

struct Registry {
    // Guards interning, witness recording and new-edge insertion. A plain
    // std::mutex, deliberately uninstrumented (and a leaf: nothing else is
    // acquired under it), so lockdep cannot observe itself.
    std::mutex m;
    std::vector<std::string> names;
    std::vector<Nesting> nestings;
    std::map<std::string, int> by_name;
    // Class-level acquisition-order matrix: edge[a][b] means "a was held
    // while b was acquired". Atomic so the hot path can probe without m.
    std::atomic<bool> edge[kMaxClasses][kMaxClasses] = {};
    std::vector<Witness> witnesses;
    // Dedup: one witness per offending (held, acquired) class pair.
    std::atomic<bool> reported[kMaxClasses][kMaxClasses] = {};
};

Registry& reg() {
    // Deliberately leaked: the install_exit_check atexit handler (registered
    // at static-init time, before the lazy first intern) runs AFTER this
    // object's destructor would, so a function-local static would be read
    // after destruction. Immortalize it instead.
    static Registry* r = new Registry;
    return *r;
}

std::vector<HeldLock>& tls_held() {
    thread_local std::vector<HeldLock> held;
    return held;
}

/// DFS over the edge matrix: is `to` reachable from `from`?  Fills `path`
/// with the class chain from -> ... -> to when it is. Caller holds reg().m
/// (the matrix may gain edges concurrently; a racy extra edge only makes
/// reachability conservative, never wrong, because edges are never removed
/// outside reset()).
bool find_path(const Registry& r, int from, int to, int nclasses, std::vector<int>& path) {
    std::vector<int> stack{from};
    std::vector<int> parent(static_cast<std::size_t>(nclasses), -1);
    std::vector<char> seen(static_cast<std::size_t>(nclasses), 0);
    seen[static_cast<std::size_t>(from)] = 1;
    while (!stack.empty()) {
        const int cur = stack.back();
        stack.pop_back();
        if (cur == to) {
            for (int x = to; x != -1; x = parent[static_cast<std::size_t>(x)]) {
                path.push_back(x);
            }
            std::reverse(path.begin(), path.end());
            return true;
        }
        for (int next = 0; next < nclasses; ++next) {
            if (!seen[static_cast<std::size_t>(next)] &&
                r.edge[cur][next].load(std::memory_order_relaxed)) {
                seen[static_cast<std::size_t>(next)] = 1;
                parent[static_cast<std::size_t>(next)] = cur;
                stack.push_back(next);
            }
        }
    }
    return false;
}

void record_witness(Registry& r, int held, int acquired, const std::string& message,
                    std::vector<std::string> chain) {
    if (r.reported[held][acquired].exchange(true, std::memory_order_relaxed)) return;
    Witness w;
    w.message = message;
    w.chain = std::move(chain);
    std::lock_guard lock(r.m);
    r.witnesses.push_back(std::move(w));
}

/// Records the class-level edge held -> acquired; on a NEW edge, checks
/// whether the reverse direction was already reachable (a cycle closed).
void record_edge(int held, int acquired) {
    Registry& r = reg();
    if (r.edge[held][acquired].load(std::memory_order_relaxed)) return;
    std::vector<int> path;
    std::string msg;
    std::vector<std::string> chain;
    {
        std::lock_guard lock(r.m);
        if (r.edge[held][acquired].exchange(true, std::memory_order_relaxed)) return;
        const int n = static_cast<int>(r.names.size());
        // The new edge held -> acquired closes a cycle iff held was already
        // reachable from acquired.
        if (!find_path(r, acquired, held, n, path)) return;
        std::ostringstream os;
        os << "lock-order cycle: ";
        for (int c : path) {
            os << r.names[static_cast<std::size_t>(c)] << " -> ";
            chain.push_back(r.names[static_cast<std::size_t>(c)]);
        }
        os << r.names[static_cast<std::size_t>(acquired)]
           << " (this thread acquired " << r.names[static_cast<std::size_t>(acquired)]
           << " while holding " << r.names[static_cast<std::size_t>(held)]
           << "; the opposite order was observed before)";
        chain.push_back(r.names[static_cast<std::size_t>(acquired)]);
        msg = os.str();
    }
    record_witness(r, held, acquired, msg, std::move(chain));
}

}  // namespace

int intern(const char* name, Nesting nesting) {
    Registry& r = reg();
    std::lock_guard lock(r.m);
    const std::string key(name);
    auto it = r.by_name.find(key);
    if (it != r.by_name.end()) return it->second;
    const int id = static_cast<int>(r.names.size());
    if (id >= kMaxClasses) {
        std::fprintf(stderr, "lockdep: too many lock classes (max %d), '%s' untracked\n",
                     kMaxClasses, name);
        return kMaxClasses - 1;  // merge overflow into the last class
    }
    r.names.push_back(key);
    r.nestings.push_back(nesting);
    r.by_name.emplace(key, id);
    return id;
}

void on_acquire(int cls, std::uint32_t subrank) {
    Registry& r = reg();
    std::vector<HeldLock>& held = tls_held();
    if (!g_recorded.load(std::memory_order_relaxed)) {
        g_recorded.store(true, std::memory_order_relaxed);
    }
    for (const HeldLock& h : held) {
        if (h.cls == cls) {
            Nesting n;
            std::string name;
            {
                std::lock_guard lock(r.m);
                n = r.nestings[static_cast<std::size_t>(cls)];
                name = r.names[static_cast<std::size_t>(cls)];
            }
            const bool bad = n == Nesting::Never || h.subrank >= subrank;
            if (bad) {
                std::ostringstream os;
                os << "same-class nesting violation on '" << name << "': ";
                if (n == Nesting::Never) {
                    os << "class forbids holding two instances at once";
                } else {
                    os << "subrank " << subrank << " acquired while holding subrank "
                       << h.subrank << " (ascending order required)";
                }
                record_witness(r, cls, cls, os.str(), {name, name});
            }
        } else {
            record_edge(h.cls, cls);
        }
    }
    held.push_back(HeldLock{cls, subrank});
}

void on_release(int cls) {
    std::vector<HeldLock>& held = tls_held();
    if (held.empty()) return;  // acquired before lockdep was enabled
    // Locks may be released out of LIFO order (unique_lock juggling):
    // remove the most recent matching entry.
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->cls == cls) {
            held.erase(std::next(it).base());
            return;
        }
    }
}

}  // namespace detail

void enable() { detail::g_enabled.store(true, std::memory_order_relaxed); }
void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
    auto& r = detail::reg();
    std::lock_guard lock(r.m);
    const int n = static_cast<int>(r.names.size());
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
            r.edge[a][b].store(false, std::memory_order_relaxed);
            r.reported[a][b].store(false, std::memory_order_relaxed);
        }
    }
    r.witnesses.clear();
}

Report report() {
    auto& r = detail::reg();
    std::lock_guard lock(r.m);
    Report out;
    out.classes = r.names;
    const int n = static_cast<int>(r.names.size());
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
            if (r.edge[a][b].load(std::memory_order_relaxed)) {
                out.edges.emplace_back(r.names[static_cast<std::size_t>(a)],
                                       r.names[static_cast<std::size_t>(b)]);
            }
        }
    }
    out.witnesses = r.witnesses;
    return out;
}

std::string Report::to_string() const {
    std::ostringstream os;
    os << "lockdep: " << classes.size() << " lock class(es), " << edges.size()
       << " acquisition-order edge(s), " << witnesses.size() << " witness(es)\n";
    for (const Witness& w : witnesses) {
        os << "  [witness] " << w.message << '\n';
    }
    return os.str();
}

void install_exit_check() {
    static bool installed = false;
    if (installed) return;
    installed = true;
    std::atexit([] {
        const Report r = report();
        if (!r.clean()) {
            std::fputs(r.to_string().c_str(), stderr);
            std::fputs("lockdep: potential deadlock witnessed — failing the run\n", stderr);
            std::_Exit(86);
        }
    });
}

namespace {

/// DFAMR_VERIFY builds turn lockdep on for every binary (and gate exit);
/// DFAMR_LOCKDEP=1 / =0 in the environment overrides either way.
[[maybe_unused]] const bool g_auto_enable = [] {
    bool on = false;
#if defined(DFAMR_VERIFY)
    on = true;
#endif
    if (const char* env = std::getenv("DFAMR_LOCKDEP")) on = env[0] != '0';
    if (on) {
        enable();
        install_exit_check();
    }
    return on;
}();

}  // namespace

}  // namespace dfamr::lockdep
