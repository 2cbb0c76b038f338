// Dense distance matrices over the tropical (min-plus) semiring.
//
// Section 2.1 of the paper: APSP is matrix exponentiation over
// (Z>=0 ∪ {∞}, min, +).  A^h holds the h-hop distances; once h reaches the
// maximum shortest-path hop count, A^h is the distance matrix.
#ifndef CCQ_MATRIX_DENSE_HPP
#define CCQ_MATRIX_DENSE_HPP

#include <memory>
#include <vector>

#include "ccq/common/check.hpp"
#include "ccq/common/types.hpp"

namespace ccq {

class Graph;

namespace detail {

/// std::allocator that leaves value-less constructions default-
/// initialized (i.e. uninitialized for Weight), so the engine can defer
/// the first write of each C band to the band task that computes it
/// and skip a serial n² fill.  Explicit fills (vector(n, value)) are
/// unaffected.
template <class T>
struct uninit_allocator : std::allocator<T> {
    template <class U>
    struct rebind {
        using other = uninit_allocator<U>;
    };
    template <class U>
    void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U))
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args)
    {
        std::construct_at(p, std::forward<Args>(args)...);
    }
};

} // namespace detail

/// Square matrix of path lengths with kInfinity as "no path".
class DistanceMatrix {
public:
    DistanceMatrix() = default;
    explicit DistanceMatrix(int n, Weight fill = kInfinity)
        : n_(n), cells_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), fill)
    {
        CCQ_EXPECT(n >= 0, "DistanceMatrix: negative size");
    }

    /// A matrix whose cells are allocated but NOT initialized.  Only for
    /// first-touch fills that write every cell before any read: the
    /// engine (each band by the worker that owns it) and snapshot loads.
    [[nodiscard]] static DistanceMatrix uninitialized(int n)
    {
        CCQ_EXPECT(n >= 0, "DistanceMatrix: negative size");
        DistanceMatrix m;
        m.n_ = n;
        m.cells_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
        return m;
    }

    [[nodiscard]] int size() const noexcept { return n_; }

    [[nodiscard]] Weight& at(NodeId u, NodeId v)
    {
        CCQ_EXPECT(in_range(u) && in_range(v), "DistanceMatrix::at out of range");
        return cells_[index(u, v)];
    }
    [[nodiscard]] Weight at(NodeId u, NodeId v) const
    {
        CCQ_EXPECT(in_range(u) && in_range(v), "DistanceMatrix::at out of range");
        return cells_[index(u, v)];
    }

    /// Replaces at(u,v) with min(at(u,v), w).
    void relax(NodeId u, NodeId v, Weight w)
    {
        Weight& cell = at(u, v);
        cell = min_weight(cell, w);
    }

    void set_diagonal_zero()
    {
        for (NodeId u = 0; u < n_; ++u) at(u, u) = 0;
    }

    [[nodiscard]] bool in_range(NodeId u) const noexcept { return u >= 0 && u < n_; }

    /// Row-major storage (n*n entries) for the blocked engine kernels;
    /// all invariants (entries <= kInfinity) are the caller's to keep.
    [[nodiscard]] Weight* data() noexcept { return cells_.data(); }
    [[nodiscard]] const Weight* data() const noexcept { return cells_.data(); }

    friend bool operator==(const DistanceMatrix&, const DistanceMatrix&) = default;

private:
    [[nodiscard]] std::size_t index(NodeId u, NodeId v) const noexcept
    {
        return static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(v);
    }

    int n_ = 0;
    std::vector<Weight, detail::uninit_allocator<Weight>> cells_;
};

/// Weighted adjacency matrix of `g` with zero diagonal (paper notation A).
[[nodiscard]] DistanceMatrix adjacency_matrix(const Graph& g);

/// Entry-wise minimum.
[[nodiscard]] DistanceMatrix entrywise_min(const DistanceMatrix& a, const DistanceMatrix& b);

/// True if the matrix is symmetric (undirected distances).
[[nodiscard]] bool is_symmetric(const DistanceMatrix& a);

/// Largest finite entry (0 when there is none): an upper bound on the
/// diameter when `a` is a distance estimate.
[[nodiscard]] Weight max_finite_entry(const DistanceMatrix& a);

} // namespace ccq

#endif // CCQ_MATRIX_DENSE_HPP
