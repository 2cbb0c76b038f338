// Output checks: exact Dijkstra rows as ground truth, the oracle's
// stretch contract d <= answer <= claimed * d, and the wire answers
// against the in-process QueryEngine.
#ifndef CCQ_PERFBENCH_CHECKS_HPP
#define CCQ_PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ccq/apsp.hpp"
#include "serve_loop.hpp"

namespace perfbench {

/// Exact distance rows of G for a set of sources (Dijkstra, in parallel).
class ExactRows {
public:
    ExactRows(const ccq::Graph& g, std::span<const ccq::NodeId> sources);

    [[nodiscard]] const std::vector<ccq::Weight>& row(ccq::NodeId source) const
    {
        return rows_.at(source);
    }

private:
    std::unordered_map<ccq::NodeId, std::vector<ccq::Weight>> rows_;
};

/// Answer/exact ratios and contract violations over some pairs.
struct StretchTally {
    double max_stretch = 1.0;
    double sum_stretch = 0.0; ///< over pairs with a finite, non-zero exact distance
    std::uint64_t ratios = 0;
    std::uint64_t violations = 0; ///< below exact, above claimed * exact, or reachability

    [[nodiscard]] double mean_stretch() const
    {
        return ratios == 0 ? 1.0 : sum_stretch / static_cast<double>(ratios);
    }

    /// Checks one answer against the exact distance.
    void add(ccq::Weight exact, ccq::Weight answer, double claimed);
};

/// Checks full estimate rows of `sources`: `estimate_row(s)` returns the
/// oracle's row for source s.
template <class RowFn>
StretchTally check_rows(const ExactRows& exact, std::span<const ccq::NodeId> sources,
                        double claimed, RowFn&& estimate_row)
{
    StretchTally tally;
    for (const ccq::NodeId s : sources) {
        const std::vector<ccq::Weight>& truth = exact.row(s);
        const std::vector<ccq::Weight> row = estimate_row(s);
        for (std::size_t v = 0; v < truth.size(); ++v)
            if (static_cast<ccq::NodeId>(v) != s) tally.add(truth[v], row[v], claimed);
    }
    return tally;
}

/// Result of checking one serve phase.
struct WireCheck {
    std::uint64_t failed = 0; ///< errors, in-process mismatches, contract violations
    StretchTally stretch;
};

/// Checks every wire answer: bitwise against the snapshot's own rows
/// and the in-process `reference` engine, the stretch contract against
/// exact Dijkstra rows of `g`, and each path as a walk of G from `from`
/// to `to` whose length lies between the exact distance and the
/// reported one (`exact_paths`: equal to the reported one, as for
/// spanner routes).
[[nodiscard]] WireCheck check_answers(const ServeReport& report, const ccq::QueryEngine& reference,
                                      const ccq::Graph& g, double claimed, bool exact_paths);

} // namespace perfbench

#endif // CCQ_PERFBENCH_CHECKS_HPP
