//! Extremal queries over hull summaries (paper §6).
//!
//! Every query consumes [`ConvexPolygon`]s produced by any
//! [`HullSummary`](crate::summary::HullSummary) through its cached
//! `hull_ref()`, so exact and approximate summaries are interchangeable.
//! Costs are `O(r)` (diameter, width, overlap) or `O(log r)` (directional
//! extent, containment point tests) on a size-`r` sample, matching the
//! paper's bounds.
//!
//! With an adaptive sample of parameter `r`, all *absolute* errors are
//! `O(D/r²)` where `D` is the diameter (Theorem 5.4); the width/extent
//! caveat of §6 — the *relative* error can be poor when the extent is far
//! below `D` — is preserved and demonstrated in the integration tests.

pub mod multi;
pub mod serving;

use geom::{calipers, clip, distance, locate, ConvexPolygon, Line, Point2, Vec2};

pub use multi::{MultiStreamTracker, PairEvent, PairState};
pub use serving::{
    Estimate, JoinAnswer, JoinCertificate, JoinPair, PairAnswer, QDir, QueryCacheStats,
    QueryEngine, QueryError, TopKAnswer, TopKEntry,
};

/// Diameter of the summarised point set: the two attaining sample points
/// and their distance. `None` for fewer than 2 samples. `O(r)`.
pub fn diameter(hull: &ConvexPolygon) -> Option<(Point2, Point2, f64)> {
    calipers::diameter(hull)
}

/// Width of the summarised set (minimum distance between enclosing parallel
/// lines). `O(r)`.
pub fn width(hull: &ConvexPolygon) -> f64 {
    calipers::width(hull)
}

/// Extent of the summarised set in direction `dir`. `O(log r)`.
pub fn directional_extent(hull: &ConvexPolygon, dir: Vec2) -> f64 {
    locate::directional_extent(hull, dir)
}

/// Farthest sample point from `q` (the farthest point of a convex set from
/// any point is a vertex). `O(r)`.
pub fn farthest_point(hull: &ConvexPolygon, q: Point2) -> Option<Point2> {
    calipers::farthest_vertex(hull, q)
}

/// Smallest enclosing axis-aligned box of the sample. `O(r)`.
pub fn bounding_box(hull: &ConvexPolygon) -> Option<(Point2, Point2)> {
    calipers::bounding_box(hull)
}

/// Minimum distance between two summarised streams (0 when their hulls
/// intersect, infinite when either is empty).
pub fn min_distance(a: &ConvexPolygon, b: &ConvexPolygon) -> f64 {
    distance::min_distance(a, b)
}

/// Linear separability with a certificate: a separating [`Line`] when the
/// hulls are disjoint, or a common witness point when they are not.
pub fn separation(a: &ConvexPolygon, b: &ConvexPolygon) -> Option<distance::Separation> {
    distance::separation(a, b)
}

/// `true` iff stream `inner` is (approximately) surrounded by stream
/// `outer` — every sample point of `inner` inside `outer`'s hull. With
/// adaptive summaries the test errs by at most `O(D/r²)` on each side.
pub fn contains(outer: &ConvexPolygon, inner: &ConvexPolygon) -> bool {
    distance::contains_polygon(outer, inner)
}

/// How far `inner` sticks out of `outer` (0 when contained).
pub fn containment_violation(outer: &ConvexPolygon, inner: &ConvexPolygon) -> f64 {
    distance::containment_violation(outer, inner)
}

/// Area of the spatial overlap of two streams' hulls. `O(r·s)`.
pub fn overlap_area(a: &ConvexPolygon, b: &ConvexPolygon) -> f64 {
    clip::overlap_area(a, b)
}

/// The overlap region itself.
pub fn overlap(a: &ConvexPolygon, b: &ConvexPolygon) -> ConvexPolygon {
    clip::intersect(a, b)
}

/// `O(log r)` point membership against a summarised hull.
pub fn contains_point(hull: &ConvexPolygon, q: Point2) -> bool {
    locate::contains(hull, q)
}

/// Smallest circle containing the summarised stream (§6's closing remark).
/// Computed on the hull vertices (the minimum enclosing circle of a set is
/// determined by its hull); with an adaptive sample the radius errs by at
/// most `O(D/r²)`.
pub fn smallest_enclosing_circle(hull: &ConvexPolygon) -> Option<geom::Circle> {
    geom::min_enclosing_circle(hull.vertices())
}

/// A supporting line of the hull in direction `dir` (through the extreme
/// sample point, outward normal `dir`). `None` on an empty hull.
pub fn supporting_line(hull: &ConvexPolygon, dir: Vec2) -> Option<Line> {
    if hull.is_empty() {
        return None;
    }
    let v = hull.vertex(locate::extreme_vertex(hull, dir));
    Some(Line::supporting(v, dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::stream::AdaptiveHull;
    use crate::exact::ExactHull;
    use crate::summary::HullSummary;
    use core::f64::consts::TAU;

    fn ellipse(n: usize, a: f64, b: f64, cx: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = TAU * (i as f64) * 0.618033988749895;
                Point2::new(cx + a * t.cos(), b * t.sin())
            })
            .collect()
    }

    #[test]
    fn diameter_query_is_accurate_on_adaptive_summary() {
        let pts = ellipse(5000, 8.0, 1.0, 0.0);
        let mut a = AdaptiveHull::with_r(16);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let da = diameter(&a.hull()).unwrap().2;
        let de = diameter(&e.hull()).unwrap().2;
        assert!(de >= da, "approx hull is inside");
        assert!(
            (de - da) / de < 1e-3,
            "diameter error {} too big",
            (de - da) / de
        );
    }

    #[test]
    fn width_absolute_error_is_small_relative_can_be_poor() {
        // §6's caveat demonstrated: skinny set, absolute width error is
        // O(D/r²) but that's not small *relative to the width itself* for a
        // crude uniform summary; the adaptive one does well here.
        let pts = ellipse(5000, 16.0, 0.5, 0.0);
        let mut a = AdaptiveHull::with_r(32);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let wa = width(&a.hull());
        let we = width(&e.hull());
        let d = diameter(&e.hull()).unwrap().2;
        assert!(
            (we - wa).abs() <= 32.0 * d / (32.0f64 * 32.0),
            "absolute error bound"
        );
    }

    #[test]
    fn directional_extent_matches_support_difference() {
        let pts = ellipse(2000, 4.0, 2.0, 0.0);
        let mut e = ExactHull::new();
        for &q in &pts {
            e.insert(q);
        }
        let hull = e.hull();
        for k in 0..16 {
            let dir = Vec2::from_angle(TAU * k as f64 / 16.0);
            let fast = directional_extent(&hull, dir);
            let hi = hull.support(dir).unwrap();
            let lo = -hull.support(-dir).unwrap();
            assert!((fast - (hi - lo)).abs() < 1e-9, "direction {k}");
        }
    }

    #[test]
    fn separation_between_two_streams() {
        let left = ellipse(2000, 2.0, 1.0, -5.0);
        let right = ellipse(2000, 2.0, 1.0, 5.0);
        let mut ha = AdaptiveHull::with_r(16);
        let mut hb = AdaptiveHull::with_r(16);
        for (&p, &q) in left.iter().zip(&right) {
            ha.insert(p);
            hb.insert(q);
        }
        let (pa, pb) = (ha.hull(), hb.hull());
        let s = separation(&pa, &pb).unwrap();
        assert!(s.is_separated());
        // True gap is 10 - 2 - 2 = 6; approximation error is tiny.
        assert!(
            (s.distance() - 6.0).abs() < 0.1,
            "distance {}",
            s.distance()
        );
        assert!(min_distance(&pa, &pb) > 0.0);
        // Merge the streams: separation disappears.
        for &q in &right {
            ha.insert(q);
        }
        assert!(!separation(&ha.hull(), &pb).unwrap().is_separated());
    }

    #[test]
    fn containment_and_violation() {
        let inner = ellipse(2000, 1.0, 1.0, 0.0);
        let outer = ellipse(2000, 5.0, 5.0, 0.0);
        let mut hi = AdaptiveHull::with_r(16);
        let mut ho = AdaptiveHull::with_r(16);
        for (&p, &q) in inner.iter().zip(&outer) {
            hi.insert(p);
            ho.insert(q);
        }
        assert!(contains(&ho.hull(), &hi.hull()));
        // Containment means exactly zero violation, not merely small.
        assert_eq!(
            containment_violation(&ho.hull(), &hi.hull()).to_bits(),
            0.0f64.to_bits()
        );
        assert!(!contains(&hi.hull(), &ho.hull()));
        assert!(containment_violation(&hi.hull(), &ho.hull()) > 3.0);
    }

    #[test]
    fn overlap_area_of_offset_disks() {
        let a = ellipse(4000, 2.0, 2.0, 0.0);
        let b = ellipse(4000, 2.0, 2.0, 2.0);
        let mut ha = ExactHull::new();
        let mut hb = ExactHull::new();
        for (&p, &q) in a.iter().zip(&b) {
            ha.insert(p);
            hb.insert(q);
        }
        let area = overlap_area(&ha.hull(), &hb.hull());
        // Lens area of two unit-2 circles at distance 2:
        // 2 r² cos⁻¹(d/2r) - (d/2)·sqrt(4r² - d²) with r=2, d=2.
        let expect = 2.0 * 4.0 * (0.5f64).acos() - 1.0 * (16.0f64 - 4.0).sqrt();
        assert!((area - expect).abs() < 0.05, "area {area} vs lens {expect}");
    }

    #[test]
    fn smallest_enclosing_circle_tracks_exact() {
        let pts = ellipse(4000, 3.0, 1.0, 0.0);
        let mut a = AdaptiveHull::with_r(32);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let ca = smallest_enclosing_circle(&a.hull()).unwrap();
        let ce = smallest_enclosing_circle(&e.hull()).unwrap();
        assert!(
            ce.radius >= ca.radius - 1e-9,
            "approx circle cannot be larger"
        );
        assert!(
            (ce.radius - ca.radius) < 0.01,
            "{} vs {}",
            ca.radius,
            ce.radius
        );
        assert!(
            (ce.radius - 3.0).abs() < 0.01,
            "ellipse MEC radius is the semi-major"
        );
        assert!(smallest_enclosing_circle(&ConvexPolygon::empty()).is_none());
    }

    #[test]
    fn supporting_line_bounds_all_samples() {
        let pts = ellipse(1000, 3.0, 1.0, 0.0);
        let mut e = ExactHull::new();
        for &q in &pts {
            e.insert(q);
        }
        let hull = e.hull();
        for k in 0..8 {
            let dir = Vec2::from_angle(TAU * k as f64 / 8.0 + 0.05);
            let line = supporting_line(&hull, dir).unwrap();
            for &v in hull.vertices() {
                assert!(line.signed_distance(v) <= 1e-9);
            }
        }
    }
}
