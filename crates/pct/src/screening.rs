//! Step 1 and step 2: spectral-angle screening and unique-set merging.
//!
//! Screening prevents the PCT "from highlighting only the variation that
//! dominates numerically": an object that occurs frequently (trees) would
//! otherwise swamp a rare object (a mechanized vehicle).  Each worker builds
//! a *unique set* — a subset of its pixels such that every pair is separated
//! by at least the threshold spectral angle — and the manager merges the
//! per-worker sets with the same rule.  The covariance of step 4 is then
//! computed over the merged unique set, so each distinct spectral signature
//! contributes roughly equally regardless of how many pixels carry it.
//!
//! ## Hot-path note
//!
//! Screening is O(unique × pixels) and dominates phase 1 at paper scale.
//! The membership test makes exactly the boolean decision of the naive
//! `spectral_angle`-per-pair rule, with far less arithmetic per comparison:
//!
//! * **Cached norms.**  A member's norm is computed once, when it joins the
//!   set, and a pixel's once per admission.
//! * **Fast decision.**  Each comparison first forms the cosine from a plain
//!   four-accumulator dot product, divided by the same cached norms.  Only
//!   when that cosine falls inside `[cos_distinct − m, cos_similar + m]` does
//!   the comparison run the exact path: the compensated (Neumaier) dot, the
//!   clamp, the two cosine bounds and, inside a `BOUND_SLACK_RAD` band around
//!   the threshold, `acos`.
//! * **Last hit first.**  A [`UniqueSet`] remembers the member that last
//!   screened a pixel out and tests it first, because neighbouring pixels are
//!   usually screened out by the same member.
//!
//! *Why the fast decision is exact.*  Let `n` be the band count,
//! `u = ε/2` the unit round-off and `pᵢ` the rounded products `aᵢbᵢ`, which
//! both dots form identically.  Any summation order, the four-accumulator
//! one included, errs by at most `γₙ₋₁·Σ|pᵢ|` with `γₖ = ku/(1 − ku)`; the
//! Neumaier sum errs by at most `2u|Σpᵢ| + O(nu²)·Σ|pᵢ|`.  By
//! Cauchy–Schwarz `Σ|pᵢ| ≤ (1 + u)‖a‖‖b‖`, and the cached norms and their
//! product are within a few `u` of `‖a‖‖b‖`.  Dividing by that product and
//! rounding each quotient, the two cosines differ by at most
//! `(n + 3)u + O(nu²)`; clamping to `[−1, 1]` cannot widen the gap.  The
//! margin `m = 4·(n + 4)·ε = 8·(n + 4)·u` is eight times that, so a fast
//! cosine above `cos_similar + m` proves the exact cosine clears
//! `cos_similar` (similar), and one below `cos_distinct − m` proves it falls
//! short of `cos_distinct` (distinct): the exact path would decide the same
//! without reaching `acos`.  The argument assumes no product or partial sum
//! overflows or underflows, so the fast decision is only taken when both
//! norms lie in `FAST_NORMS`; zero, subnormal, huge, infinite and NaN pixels
//! always take the exact path and behave as the exact rule always has.
//!
//! *Why the ordering cannot change the output.*  A pixel is admitted iff no
//! member is similar to it, a pure `any` over the members.  Testing the
//! members in another order changes how many comparisons run, never the
//! answer, and which member screened the pixel out is not observable.
//!
//! The tests below check both claims against the naive per-pair rule and
//! the exact-only rule, including pairs placed on the threshold.

use linalg::Vector;
use std::f64::consts::FRAC_PI_2;
use std::ops::RangeInclusive;

/// Angular slack (radians) around the screening threshold inside which the
/// cosine bound is considered inconclusive and the exact `acos` comparison
/// runs instead.  `acos` is accurate to a few ulps (≪ 1e-12 rad), so any
/// cosine outside this band decides the comparison exactly as the naive
/// formulation would.
const BOUND_SLACK_RAD: f64 = 1e-9;

/// Norms for which the fast dot's error bound holds.  The range lies inside
/// `[2⁻⁴⁵⁰, 2⁴⁵⁰]`, so no product or partial sum can overflow
/// (`|aᵢbᵢ| ≤ ‖a‖‖b‖ ≤ 2⁹⁰⁰`), and underflow in the products or the squares
/// costs at most `n·2⁻¹⁰⁷⁴` against `‖a‖² ≥ 2⁻⁹⁰⁰`, far below `u`.
const FAST_NORMS: RangeInclusive<f64> = 1.0e-135..=1.0e135;

/// Cosine margin that covers the difference between the fast and the exact
/// cosine of two `bands`-long vectors (see the module's hot-path note).
fn fast_margin(bands: usize) -> f64 {
    4.0 * (bands as f64 + 4.0) * f64::EPSILON
}

/// Plain dot product with four independent accumulators: no compensation
/// and no data-dependent branches, so the compiler can pipeline it.
fn fast_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0_f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    for (k, (x, y)) in a4.remainder().iter().zip(b4.remainder()).enumerate() {
        acc[k] = x * y;
    }
    for (x, y) in a4.zip(b4) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// The spectral-angle acceptance rule with precomputed cosine bounds.
#[derive(Debug, Clone, Copy)]
struct AngleGuard {
    threshold_rad: f64,
    /// `cos(threshold - slack)`: a cosine at or above this is certainly
    /// within the threshold (similar) — no `acos` needed.
    cos_similar: f64,
    /// `cos(threshold + slack)`: a cosine strictly below this is certainly
    /// beyond the threshold (distinct) — no `acos` needed.
    cos_distinct: f64,
}

impl AngleGuard {
    fn new(threshold_rad: f64) -> Self {
        Self {
            threshold_rad,
            cos_similar: (threshold_rad - BOUND_SLACK_RAD).max(0.0).cos(),
            cos_distinct: (threshold_rad + BOUND_SLACK_RAD)
                .min(std::f64::consts::PI)
                .cos(),
        }
    }

    /// Prepares the comparisons of one pixel against the members.
    fn probe<'a>(&self, pixel: &'a Vector) -> Probe<'a> {
        let norm = pixel.norm();
        let margin = fast_margin(pixel.len());
        Probe {
            guard: *self,
            pixel,
            norm,
            fast: FAST_NORMS.contains(&norm),
            sure_similar: self.cos_similar + margin,
            sure_distinct: self.cos_distinct - margin,
        }
    }

    /// The exact decision for two vectors with a non-zero norm product
    /// `denom`: compensated dot, clamp, the cosine bounds, then `acos`.
    fn similar_exact(&self, pixel: &Vector, other: &Vector, denom: f64) -> bool {
        let dot = pixel
            .dot(other)
            .expect("pixels in one scene share a band count");
        let cos = (dot / denom).clamp(-1.0, 1.0);
        if cos >= self.cos_similar {
            return true;
        }
        if cos < self.cos_distinct {
            return false;
        }
        cos.acos() <= self.threshold_rad
    }
}

/// One pixel's side of its comparisons: its cached norm and the cosine
/// cut-offs widened by the fast-dot margin for its band count.
struct Probe<'a> {
    guard: AngleGuard,
    pixel: &'a Vector,
    norm: f64,
    /// Whether the pixel's norm admits the fast decision.
    fast: bool,
    /// A fast cosine above this proves the pair similar.
    sure_similar: f64,
    /// A fast cosine below this proves the pair distinct.
    sure_distinct: f64,
}

impl Probe<'_> {
    /// Whether the pixel and `other` are within the threshold angle (i.e.
    /// `other` *screens out* the pixel).  `other_norm` is the member's cached
    /// norm; `exact` counts the comparisons the exact path decided.
    fn similar(&self, other: &Vector, other_norm: f64, exact: &mut usize) -> bool {
        let denom = self.norm * other_norm;
        if denom == 0.0 {
            // A zero pixel carries no spectral direction: the angle is
            // defined as pi/2 (see `Vector::spectral_angle`).
            return FRAC_PI_2 <= self.guard.threshold_rad;
        }
        let (a, b) = (self.pixel.as_slice(), other.as_slice());
        if self.fast && FAST_NORMS.contains(&other_norm) && a.len() == b.len() {
            let cos = (fast_dot(a, b) / denom).clamp(-1.0, 1.0);
            if cos > self.sure_similar {
                return true;
            }
            if cos < self.sure_distinct {
                return false;
            }
        }
        *exact += 1;
        self.guard.similar_exact(self.pixel, other, denom)
    }
}

/// An incrementally built unique set with cached member norms.
///
/// This is the screening engine shared by [`screen_pixels`],
/// [`screen_pixels_seeded`] and [`merge_unique_sets`]; the service layer's
/// exact screening chain drives it through [`screen_pixels_seeded`].
#[derive(Debug, Clone)]
pub struct UniqueSet {
    guard: AngleGuard,
    vectors: Vec<Vector>,
    norms: Vec<f64>,
    /// Index of the member that last screened a pixel out; tested first.
    last_hit: usize,
    /// Comparisons the exact path decided (the fast cosine was too close
    /// to a bound, or a norm was out of the fast range).
    exact_decisions: usize,
}

impl UniqueSet {
    /// Creates an empty unique set for the given screening threshold.
    pub fn new(threshold_rad: f64) -> Self {
        Self::seeded(Vec::new(), threshold_rad)
    }

    /// Creates a unique set pre-populated with `seed` — vectors that are
    /// already known to satisfy the screening rule (a previously computed
    /// unique set) and are therefore admitted without re-checking.
    pub fn seeded(seed: impl IntoIterator<Item = Vector>, threshold_rad: f64) -> Self {
        let vectors: Vec<Vector> = seed.into_iter().collect();
        let norms = vectors.iter().map(Vector::norm).collect();
        Self {
            guard: AngleGuard::new(threshold_rad),
            vectors,
            norms,
            last_hit: 0,
            exact_decisions: 0,
        }
    }

    /// Number of vectors in the set.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vectors admitted so far, in admission order.
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// Consumes the set and returns its vectors in admission order.
    pub fn into_vectors(self) -> Vec<Vector> {
        self.vectors
    }

    /// Comparisons decided by the exact path so far.
    #[cfg(test)]
    pub(crate) fn exact_decisions(&self) -> usize {
        self.exact_decisions
    }

    /// The index of a member similar to the probed pixel, if any, testing
    /// the last hit first.
    fn find_similar(&self, probe: &Probe<'_>, exact: &mut usize) -> Option<usize> {
        let last = self.last_hit;
        let mut similar = |k: usize| probe.similar(&self.vectors[k], self.norms[k], exact);
        if last < self.vectors.len() && similar(last) {
            return Some(last);
        }
        (0..self.vectors.len()).find(|&k| k != last && similar(k))
    }

    /// Whether `pixel` is separated from every member by more than the
    /// threshold angle.
    pub fn is_unique(&self, pixel: &Vector) -> bool {
        self.find_similar(&self.guard.probe(pixel), &mut 0)
            .is_none()
    }

    /// Admits `pixel` if it is unique against the current members; returns
    /// whether it was admitted.
    pub fn admit(&mut self, pixel: &Vector) -> bool {
        let probe = self.guard.probe(pixel);
        let mut exact = 0;
        let hit = self.find_similar(&probe, &mut exact);
        self.exact_decisions += exact;
        if let Some(k) = hit {
            self.last_hit = k;
            return false;
        }
        self.vectors.push(pixel.clone());
        self.norms.push(probe.norm);
        true
    }
}

/// Builds the unique set of a collection of pixel vectors using greedy
/// spectral-angle screening (step 1).
///
/// A pixel joins the unique set if its spectral angle to *every* vector
/// already in the set exceeds `threshold_rad`.  With a threshold of zero the
/// screening keeps every pixel (no screening).
pub fn screen_pixels(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return pixels.to_vec();
    }
    let mut unique = UniqueSet::new(threshold_rad);
    for pixel in pixels {
        unique.admit(pixel);
    }
    unique.into_vectors()
}

/// Greedy screening of `pixels` against an already-accepted `seed` set,
/// returning only the *newly* admitted vectors in admission order.
///
/// This is the exactness primitive of the service layer's screening chain:
/// for any split of a pixel sequence into consecutive parts, folding the
/// parts through seeded screening reproduces [`screen_pixels`] of the whole
/// sequence bit-for-bit —
/// `screen(A ++ B) == screen(A) ++ screen_seeded(screen(A), B)`.
pub fn screen_pixels_seeded(seed: &[Vector], pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return pixels.to_vec();
    }
    let mut unique = UniqueSet::seeded(seed.iter().cloned(), threshold_rad);
    let seeded = unique.len();
    for pixel in pixels {
        unique.admit(pixel);
    }
    let mut vectors = unique.into_vectors();
    vectors.split_off(seeded)
}

/// Merges several per-worker unique sets into one (step 2), applying the same
/// screening rule across sets so signatures found by two different workers
/// are not duplicated.
pub fn merge_unique_sets(sets: Vec<Vec<Vector>>, threshold_rad: f64) -> Vec<Vector> {
    if threshold_rad <= 0.0 {
        return sets.into_iter().flatten().collect();
    }
    let mut merged = UniqueSet::new(threshold_rad);
    for set in sets {
        for pixel in set {
            merged.admit(&pixel);
        }
    }
    merged.into_vectors()
}

/// Summary of a screening pass, reported by the examples and the screening
/// ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningSummary {
    /// Number of pixels examined.
    pub input_pixels: usize,
    /// Number of unique vectors retained.
    pub unique_pixels: usize,
}

impl ScreeningSummary {
    /// Fraction of pixels retained by screening.
    pub fn retention(&self) -> f64 {
        if self.input_pixels == 0 {
            return 0.0;
        }
        self.unique_pixels as f64 / self.input_pixels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f64]) -> Vector {
        Vector::from_vec(data.to_vec())
    }

    /// The naive formulation the optimised path must match bit-for-bit: a
    /// full `spectral_angle` (two norms, dot, `acos`) per comparison.
    fn naive_screen(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
        if threshold_rad <= 0.0 {
            return pixels.to_vec();
        }
        let mut unique: Vec<Vector> = Vec::new();
        for pixel in pixels {
            let distinct = unique
                .iter()
                .all(|u| pixel.spectral_angle(u).unwrap() > threshold_rad);
            if distinct {
                unique.push(pixel.clone());
            }
        }
        unique
    }

    /// A deterministic pseudo-random pixel cloud with clusters, outliers and
    /// degenerate (zero) vectors.
    fn pixel_cloud(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                if i % 47 == 13 {
                    return Vector::zeros(4);
                }
                let a = (i % 23) as f64 * 0.11 + (i as f64) * 1e-4;
                let s = 1.0 + (i % 5) as f64;
                v(&[
                    s * a.cos(),
                    s * a.sin(),
                    s * (a * 1.7).cos(),
                    s * (0.3 + (i % 7) as f64 * 0.01),
                ])
            })
            .collect()
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let pixels = vec![v(&[1.0, 0.0]), v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        assert_eq!(screen_pixels(&pixels, 0.0).len(), 3);
    }

    #[test]
    fn identical_pixels_collapse_to_one() {
        let pixels = vec![v(&[1.0, 2.0, 3.0]); 50];
        let unique = screen_pixels(&pixels, 0.01);
        assert_eq!(unique.len(), 1);
    }

    #[test]
    fn orthogonal_pixels_are_all_kept() {
        let pixels = vec![
            v(&[1.0, 0.0, 0.0]),
            v(&[0.0, 1.0, 0.0]),
            v(&[0.0, 0.0, 1.0]),
        ];
        assert_eq!(screen_pixels(&pixels, 0.3).len(), 3);
    }

    #[test]
    fn scaled_copies_are_screened_out() {
        // The spectral angle is scale invariant, so bright and dark pixels of
        // the same material collapse together.
        let pixels = vec![
            v(&[0.2, 0.5, 0.1]),
            v(&[2.0, 5.0, 1.0]),
            v(&[0.02, 0.05, 0.01]),
        ];
        assert_eq!(screen_pixels(&pixels, 0.05).len(), 1);
    }

    #[test]
    fn threshold_controls_set_size_monotonically() {
        // A fan of vectors at 10-degree increments.
        let pixels: Vec<Vector> = (0..9)
            .map(|i| {
                let a = (i as f64) * 10.0_f64.to_radians();
                v(&[a.cos(), a.sin()])
            })
            .collect();
        let tight = screen_pixels(&pixels, 5.0_f64.to_radians()).len();
        let loose = screen_pixels(&pixels, 25.0_f64.to_radians()).len();
        assert!(tight > loose);
        assert_eq!(tight, 9);
        assert_eq!(loose, 3);
    }

    #[test]
    fn rare_signature_survives_screening() {
        // 99 copies of "forest" and one "vehicle": the unique set keeps both,
        // which is the whole point of screening.
        let mut pixels = vec![v(&[0.3, 0.8, 0.5]); 99];
        pixels.push(v(&[0.9, 0.2, 0.4]));
        let unique = screen_pixels(&pixels, 0.05);
        assert_eq!(unique.len(), 2);
    }

    /// The exact-only rule the fast decision must reproduce, NaN and
    /// infinities included: every comparison runs the compensated dot,
    /// members are tested in admission order.
    fn exact_screen(pixels: &[Vector], threshold_rad: f64) -> Vec<Vector> {
        let guard = AngleGuard::new(threshold_rad);
        let mut unique: Vec<Vector> = Vec::new();
        for pixel in pixels {
            let similar = unique.iter().any(|u| {
                let denom = pixel.norm() * u.norm();
                if denom == 0.0 {
                    FRAC_PI_2 <= threshold_rad
                } else {
                    guard.similar_exact(pixel, u, denom)
                }
            });
            if !similar {
                unique.push(pixel.clone());
            }
        }
        unique
    }

    /// Bit patterns of a vector list, so NaN samples compare equal to
    /// themselves.
    fn bits(vectors: &[Vector]) -> Vec<Vec<u64>> {
        vectors
            .iter()
            .map(|v| v.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// A clustered cloud in `bands` bands: five base spectra, small
    /// perturbations on the scale of the screening angles, varied
    /// brightness and a few sign flips.
    fn banded_cloud(bands: usize, n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                let c = (i % 5) as f64;
                let s = (1 + i % 3) as f64 * if i % 11 == 0 { -1.0 } else { 1.0 };
                let e = 0.15 * (i / 5) as f64;
                Vector::from_vec(
                    (0..bands)
                        .map(|j| {
                            let j = j as f64;
                            s * (1.5 + (j * (c + 1.0) * 0.7 + c).sin() + e * (j * 1.3 + c).cos())
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// A unit vector at `angle` from `a` in the plane of `a` and `b`.
    fn at_angle(a: &Vector, b: &Vector, angle: f64) -> Vector {
        let ua = a.scale(1.0 / a.norm());
        let w = b.sub_vec(&ua.scale(ua.dot(b).unwrap())).unwrap();
        let uw = w.scale(1.0 / w.norm());
        ua.scale(angle.cos())
            .add_vec(&uw.scale(angle.sin()))
            .unwrap()
    }

    #[test]
    fn optimised_screening_matches_naive_reference_exactly() {
        let paper = 5.0_f64.to_radians();
        let thresholds = [
            0.01,
            paper,
            0.11, // lands exactly on cluster spacing used by pixel_cloud
            FRAC_PI_2,
            2.0,
            std::f64::consts::PI,
        ];
        // (inputs, thresholds, whether the naive rule applies: it differs
        // from the exact rule on NaN and infinite samples).
        let mut cases: Vec<(String, Vec<Vector>, Vec<f64>, bool)> =
            vec![("cloud".into(), pixel_cloud(400), thresholds.to_vec(), true)];

        // Every band count from 1 to 300: not only multiples of the fast
        // dot's four lanes, and the paper's 210.
        for bands in 1..=300 {
            cases.push((
                format!("{bands} bands"),
                banded_cloud(bands, 16),
                vec![paper],
                true,
            ));
        }

        // Pairs within 1e-13 rad of the threshold: the fast cosine cannot
        // decide them, so the exact path must run, and must agree with the
        // naive rule on either side.
        for bands in [2usize, 3, 5, 105, 210] {
            let base = &banded_cloud(bands, 2);
            let (a, b) = (&base[0], &base[1]);
            let mut near = vec![a.clone()];
            for delta in [-1e-13, -5e-14, 0.0, 5e-14, 1e-13] {
                let v = at_angle(a, b, paper + delta);
                let mut set = UniqueSet::new(paper);
                assert!(set.admit(a));
                let admitted = set.admit(&v);
                assert_eq!(set.exact_decisions(), 1, "{bands} bands, {delta:e}");
                assert_eq!(admitted, a.spectral_angle(&v).unwrap() > paper);
                near.push(v);
            }
            cases.push((format!("near {bands}"), near, vec![paper], true));
        }

        // The remembered member is not the first similar one: q is similar
        // to member 1 only, p to both members, r to member 0 only.
        let fan = |angle: f64| v(&[2.0 * angle.cos(), 2.0 * angle.sin(), 0.0]);
        let order: Vec<Vector> = [0.0, 0.15, 0.2, 0.075, -0.05]
            .into_iter()
            .map(fan)
            .collect();
        let mut set = UniqueSet::new(0.1);
        let steps: Vec<(bool, usize)> =
            order.iter().map(|p| (set.admit(p), set.last_hit)).collect();
        assert_eq!(
            steps,
            vec![(true, 0), (true, 0), (false, 1), (false, 1), (false, 0)]
        );
        cases.push(("last hit".into(), order, vec![0.1], true));

        // Degenerate samples take the exact path and keep its behaviour.
        let special = vec![
            Vector::zeros(3),
            v(&[1.0, 2.0, 3.0]),
            v(&[f64::NAN, 2.0, 3.0]),
            v(&[f64::INFINITY, 1.0, 1.0]),
            v(&[1.0, 2.0, 3.01]),
            Vector::zeros(3),
            v(&[f64::NEG_INFINITY, 0.0, 1.0]),
            v(&[1e-200, 2e-200, 3e-200]),
            v(&[1e200, 2e200, 3.1e200]),
            v(&[f64::NAN; 3]),
            v(&[3.0, 2.0, 1.0]),
        ];
        cases.push(("special".into(), special, thresholds.to_vec(), false));

        for (name, pixels, thresholds, naive_applies) in &cases {
            for &threshold in thresholds {
                let fast = screen_pixels(pixels, threshold);
                let exact = exact_screen(pixels, threshold);
                assert_eq!(
                    bits(&fast),
                    bits(&exact),
                    "{name}: exact rule at {threshold}"
                );
                if *naive_applies {
                    assert_eq!(
                        fast,
                        naive_screen(pixels, threshold),
                        "{name}: naive at {threshold}"
                    );
                }
                // The seeded chain reproduces the whole screening at every
                // split, although each part starts with a fresh last hit.
                let len = pixels.len();
                for split in [0, len / 3, len - 1] {
                    let (head, tail) = pixels.split_at(split);
                    let mut chain = screen_pixels(head, threshold);
                    let tail_unique = screen_pixels_seeded(&chain, tail, threshold);
                    chain.extend(tail_unique);
                    assert_eq!(
                        bits(&chain),
                        bits(&fast),
                        "{name}: split {split} at {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_screening_chain_equals_whole_screening() {
        let pixels = pixel_cloud(300);
        let threshold = 5.0_f64.to_radians();
        let whole = screen_pixels(&pixels, threshold);

        // Fold the same sequence through an arbitrary consecutive split.
        let mut acc: Vec<Vector> = Vec::new();
        for part in pixels.chunks(71) {
            let newly = screen_pixels_seeded(&acc, part, threshold);
            acc.extend(newly);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn seeded_screening_with_zero_threshold_keeps_everything() {
        let seed = vec![v(&[1.0, 0.0])];
        let pixels = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        assert_eq!(screen_pixels_seeded(&seed, &pixels, 0.0).len(), 2);
    }

    #[test]
    fn unique_set_admit_reports_membership() {
        let mut set = UniqueSet::new(0.3);
        assert!(set.is_empty());
        assert!(set.admit(&v(&[1.0, 0.0])));
        assert!(!set.admit(&v(&[1.0, 0.001])));
        assert!(set.admit(&v(&[0.0, 1.0])));
        assert_eq!(set.len(), 2);
        assert!(!set.is_unique(&v(&[0.001, 1.0])));
        assert_eq!(set.vectors().len(), 2);
        assert_eq!(set.clone().into_vectors().len(), 2);
    }

    #[test]
    fn zero_vectors_are_mutually_unique_below_right_angle_threshold() {
        // A zero pixel's angle to anything is pi/2, so with the usual small
        // thresholds every zero pixel is admitted — matching the naive rule.
        let pixels = vec![Vector::zeros(3), Vector::zeros(3), v(&[1.0, 0.0, 0.0])];
        assert_eq!(screen_pixels(&pixels, 0.1).len(), 3);
        // With a threshold at or beyond pi/2 they collapse.
        assert_eq!(screen_pixels(&pixels, FRAC_PI_2).len(), 1);
    }

    #[test]
    fn merge_deduplicates_across_workers() {
        let worker_a = vec![v(&[1.0, 0.0]), v(&[0.0, 1.0])];
        let worker_b = vec![v(&[1.0, 0.001]), v(&[1.0, 1.0])];
        let merged = merge_unique_sets(vec![worker_a, worker_b], 0.05);
        // (1,0.001) is a near-duplicate of (1,0) and is dropped.
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn merge_with_zero_threshold_concatenates() {
        let merged = merge_unique_sets(vec![vec![v(&[1.0])], vec![v(&[2.0])]], 0.0);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_of_partitioned_input_matches_whole_input_screening_size() {
        // Screening the whole set and screening per-part then merging need
        // not give identical sets, but the sizes must be close and every kept
        // vector must respect the threshold.
        let pixels: Vec<Vector> = (0..200)
            .map(|i| {
                let a = (i % 37) as f64 * 0.07;
                v(&[a.cos(), a.sin(), (a * 2.0).cos()])
            })
            .collect();
        let threshold = 0.1;
        let whole = screen_pixels(&pixels, threshold);
        let part_a = screen_pixels(&pixels[..100], threshold);
        let part_b = screen_pixels(&pixels[100..], threshold);
        let merged = merge_unique_sets(vec![part_a, part_b], threshold);
        assert_eq!(whole.len(), merged.len());
        for (i, a) in merged.iter().enumerate() {
            for b in merged.iter().skip(i + 1) {
                assert!(a.spectral_angle(b).unwrap() > threshold);
            }
        }
    }

    #[test]
    fn summary_retention() {
        let s = ScreeningSummary {
            input_pixels: 200,
            unique_pixels: 20,
        };
        assert!((s.retention() - 0.1).abs() < 1e-12);
        let empty = ScreeningSummary {
            input_pixels: 0,
            unique_pixels: 0,
        };
        assert_eq!(empty.retention(), 0.0);
    }
}
