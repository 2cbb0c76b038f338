// Shared fixtures and assertion helpers for the ccq test suite.
#ifndef CCQ_TESTS_TEST_HELPERS_HPP
#define CCQ_TESTS_TEST_HELPERS_HPP

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ccq/core/stretch.hpp"
#include "ccq/graph/exact.hpp"
#include "ccq/graph/generators.hpp"

namespace ccq::testing {

/// Every GraphFamily, for sweeps that must cover them all.
inline constexpr GraphFamily kAllFamilies[] = {
    GraphFamily::path,          GraphFamily::cycle,
    GraphFamily::star,          GraphFamily::grid,
    GraphFamily::tree,          GraphFamily::erdos_renyi_sparse,
    GraphFamily::erdos_renyi_dense, GraphFamily::geometric,
    GraphFamily::barabasi_albert,   GraphFamily::clustered,
};

/// A (family, n, seed) test-instance descriptor for parameterized sweeps.
struct InstanceSpec {
    GraphFamily family = GraphFamily::erdos_renyi_sparse;
    int n = 32;
    std::uint64_t seed = 1;
    Weight max_weight = 100;

    [[nodiscard]] std::string label() const
    {
        return std::string(family_name(family)) + "_n" + std::to_string(n) + "_s" +
               std::to_string(seed) + "_w" + std::to_string(max_weight);
    }
};

inline Graph make_instance(const InstanceSpec& spec)
{
    Rng rng(spec.seed);
    return make_family_instance(spec.family, spec.n, WeightRange{1, spec.max_weight}, rng);
}

/// Pretty-printer so gtest names parameterized cases readably.
struct InstanceSpecName {
    template <class ParamType>
    std::string operator()(const ::testing::TestParamInfo<ParamType>& info) const
    {
        return info.param.label();
    }
};

/// Asserts that `estimate` is a valid `claimed`-approximation of `exact`:
/// never below the true distance, never above claimed * distance, and
/// agreeing on reachability.
inline void expect_valid_approximation(const DistanceMatrix& exact,
                                       const DistanceMatrix& estimate, double claimed,
                                       const std::string& context)
{
    const StretchReport report = evaluate_stretch(exact, estimate);
    EXPECT_EQ(report.lower_bound_violations, 0u) << context << ": estimate below true distance";
    EXPECT_EQ(report.reachability_mismatches, 0u) << context << ": reachability mismatch";
    EXPECT_LE(report.max_stretch, claimed + 1e-9)
        << context << ": measured stretch exceeds the claimed factor";
}

/// A graph with a readable name for failure messages.
struct NamedGraph {
    std::string name;
    Graph graph;
};

/// Small graphs at the corners of the shortest-path kernels: n in {0, 1},
/// a disconnected graph, parallel edges, zero-weight edges and cycles
/// (where tie order matters most), self-loops, and weights near
/// kInfinity whose sums saturate.
inline std::vector<NamedGraph> corner_case_graphs(Orientation orientation)
{
    std::vector<NamedGraph> graphs;
    const auto add = [&](std::string name, int n, std::vector<WeightedEdge> edges) {
        graphs.push_back({std::move(name), graph_from_edges(n, orientation, edges)});
    };
    add("empty", 0, {});
    add("single", 1, {});
    add("single_self_loop", 1, {{0, 0, 0}});
    add("disconnected", 7, {{0, 1, 3}, {1, 2, 4}, {2, 0, 1}, {3, 4, 2}, {4, 5, 2}});
    add("parallel", 5,
        {{0, 1, 5}, {0, 1, 2}, {0, 1, 2}, {1, 2, 1}, {1, 2, 7}, {2, 3, 4}, {0, 3, 7}, {3, 4, 1},
         {3, 4, 1}});
    add("zero_weights", 9,
        {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {2, 3, 1}, {0, 3, 1}, {3, 4, 0}, {4, 5, 0},
         {3, 5, 0}, {5, 6, 2}, {4, 6, 2}, {1, 7, 0}, {7, 6, 3}, {8, 8, 0}});
    add("self_loops", 4, {{0, 0, 0}, {0, 1, 1}, {1, 1, 3}, {1, 2, 1}, {2, 2, 0}, {2, 3, 0}});
    add("unit_ties", 12,
        {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {4, 5, 1}, {5, 6, 1}, {6, 7, 1}, {8, 9, 1}, {9, 10, 1},
         {10, 11, 1}, {0, 4, 1}, {4, 8, 1}, {1, 5, 1}, {5, 9, 1}, {2, 6, 1}, {6, 10, 1},
         {3, 7, 1}, {7, 11, 1}});
    const Weight half = kInfinity / 2;
    add("near_infinity", 6,
        {{0, 1, half}, {1, 2, half}, {2, 3, kInfinity - 1}, {0, 4, kInfinity - 1}, {4, 5, 1},
         {3, 5, half - 1}, {1, 5, 0}});
    return graphs;
}

/// A file under the test temp dir holding `bytes` verbatim, removed on
/// destruction.  Snapshot readers take files, so hand-made and hostile
/// bytes reach them this way.
class TempFile {
public:
    TempFile(const std::string& name, std::string_view bytes) : path_(::testing::TempDir() + name)
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        EXPECT_TRUE(out.good()) << "cannot write " << path_;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    TempFile(const TempFile&) = delete;
    TempFile& operator=(const TempFile&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

} // namespace ccq::testing

#endif // CCQ_TESTS_TEST_HELPERS_HPP
