//! The arc-overlap test both adaptive variants run on every node (or
//! leaf) an outside point may touch: does a dyadic direction range meet
//! the arc of directions the point beats?

use crate::uniform::BeatenArc;
use core::f64::consts::TAU;
use geom::dyadic::{DirGrid, DirRange};

/// Slack on both sides of the overlap test, so a range that touches the
/// arc only up to rounding still counts as overlapping.
const PAD: f64 = 1e-9;

/// `x.rem_euclid(TAU)` without the `fmod`, bit for bit, for `x` in
/// `(-TAU, 2·TAU)`: a negative `x` gets one `TAU` added (what `rem_euclid`
/// adds to `fmod`'s exact `x`), and `x >= TAU` loses one `TAU`, which is
/// exact there (Sterbenz), as `fmod` is. Arc and range angles lie in
/// `[0, TAU]`, so every operand of the overlap test lies in
/// `[-TAU, TAU + PAD]`. The one point outside the exact range, `-TAU`
/// (a start rounded up to `TAU` with an end at `0`), gives `+0.0` where
/// `rem_euclid` gives `-0.0`; the span's uses (`+ 2·PAD`, `ceil`) cannot
/// tell them apart.
#[inline]
fn wrap_tau(x: f64) -> f64 {
    if x < 0.0 {
        x + TAU
    } else if x >= TAU {
        x - TAU
    } else {
        x
    }
}

/// A beaten arc readied for the overlap test: its start and its
/// counterclockwise span, wrapped once per inserted point rather than
/// once per node.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArcTest {
    start: f64,
    span: f64,
}

impl ArcTest {
    pub(crate) fn new(arc: &BeatenArc) -> Self {
        ArcTest {
            start: arc.start,
            span: wrap_tau(arc.end - arc.start),
        }
    }

    /// The arc's counterclockwise span in `[0, TAU]`.
    pub(crate) fn span(&self) -> f64 {
        self.span
    }

    /// Does `range` intersect the (padded) arc? One of the two must
    /// contain the other's start.
    #[inline]
    pub(crate) fn overlaps(&self, grid: &DirGrid, range: &DirRange) -> bool {
        let a_start = grid.angle(range.lo);
        let a_span = range.width(grid);
        let contains = |s: f64, span: f64, x: f64| wrap_tau(x - s) <= span + 2.0 * PAD;
        contains(a_start - PAD, a_span, self.start)
            || contains(self.start - PAD, self.span, a_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_is_rem_euclid_bit_for_bit_on_the_operand_range() {
        let below_tau = f64::from_bits(TAU.to_bits() - 1);
        let mut xs = vec![
            0.0,
            -0.0,
            PAD,
            -PAD,
            TAU,
            -TAU + PAD,
            TAU + PAD,
            TAU - PAD,
            below_tau,
            -below_tau,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
        ];
        // A dense sweep of (-TAU, TAU + PAD], plus each point's neighbours
        // one ulp either side.
        let steps = 100_000;
        for i in 1..=steps {
            let x = -TAU + (2.0 * TAU + PAD) * i as f64 / steps as f64;
            xs.extend([
                x,
                f64::from_bits(x.to_bits().wrapping_add(1)),
                f64::from_bits(x.to_bits().wrapping_sub(1)),
            ]);
        }
        for x in xs {
            if !(-TAU < x && x <= TAU + PAD) {
                continue;
            }
            assert_eq!(
                wrap_tau(x).to_bits(),
                x.rem_euclid(TAU).to_bits(),
                "wrap_tau({x:e})"
            );
        }
    }
}
