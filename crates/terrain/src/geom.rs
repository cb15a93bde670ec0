//! Geometric primitives: 3-D/2-D vectors, triangles, and the planar
//! unfolding used by geodesic window propagation.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point / vector in 3-D Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Projection of the point onto the x–y plane.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Component-wise linear interpolation `self + t·(o − self)`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A point / vector in the plane (used for unfolded triangle fans).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    #[inline]
    pub fn dot(self, o: Vec2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    /// The z-component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, o: Vec2) -> f64 {
        self.x * o.y - self.y * o.x
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[inline]
    pub fn dist(self, o: Vec2) -> f64 {
        (self - o).norm()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}
impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}
impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

/// Area of the 3-D triangle `(a, b, c)`.
pub fn triangle_area(a: Vec3, b: Vec3, c: Vec3) -> f64 {
    0.5 * (b - a).cross(c - a).norm()
}

/// Interior angle of the triangle at vertex `at` (radians, in `[0, π]`).
pub fn triangle_angle(at: Vec3, b: Vec3, c: Vec3) -> f64 {
    let u = b - at;
    let v = c - at;
    let nu = u.norm();
    let nv = v.norm();
    if nu < 1e-300 || nv < 1e-300 {
        return 0.0;
    }
    (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0).acos()
}

/// Unfolds the apex of a triangle into the plane of an already-unfolded edge.
///
/// Edge endpoints `a3`/`b3` in 3-D correspond to the planar points `a2`/`b2`.
/// Returns the planar image of `c3` on the side of line `a2b2` selected by
/// `side` (`+1.0` → positive half-plane w.r.t. the edge direction `b2 − a2`,
/// `-1.0` → negative). Distances from `c` to `a` and `b` are preserved, which
/// is exactly the isometry geodesic unfolding requires.
pub fn unfold_point(a3: Vec3, b3: Vec3, c3: Vec3, a2: Vec2, b2: Vec2, side: f64) -> Vec2 {
    let l = a3.dist(b3);
    debug_assert!(l > 0.0, "degenerate edge in unfold_point");
    let da = c3.dist(a3);
    let db = c3.dist(b3);
    // Coordinates of c in the frame with a at the origin and b at (l, 0):
    // x from the law of cosines, y from the Pythagorean remainder.
    let x = (da * da - db * db + l * l) / (2.0 * l);
    let y2 = da * da - x * x;
    let y = if y2 > 0.0 { y2.sqrt() } else { 0.0 };
    let ex = (b2 - a2) * (1.0 / l);
    let ey = Vec2::new(-ex.y, ex.x); // left normal of the edge direction
    a2 + ex * x + ey * (y * side)
}

/// Intersection parameter of the ray `origin + t·dir` with the segment
/// `p + u·(q − p)`, `u ∈ [0, 1]`, `t > 0`. Returns `(t, u)` when the ray
/// crosses the segment's supporting line inside the segment.
pub fn ray_segment_intersection(origin: Vec2, dir: Vec2, p: Vec2, q: Vec2) -> Option<(f64, f64)> {
    let s = q - p;
    let denom = dir.cross(s);
    if denom.abs() < 1e-30 {
        return None; // parallel
    }
    let diff = p - origin;
    let t = diff.cross(s) / denom;
    let u = diff.cross(dir) / denom;
    if t > 0.0 && (-1e-12..=1.0 + 1e-12).contains(&u) {
        Some((t, u.clamp(0.0, 1.0)))
    } else {
        None
    }
}

/// Barycentric coordinates of `p` with respect to triangle `(a, b, c)`
/// projected onto the x–y plane. Coordinates sum to 1; all non-negative
/// (within tolerance) iff the projection of `p` lies inside the projected
/// triangle.
pub fn barycentric_xy(p: Vec2, a: Vec2, b: Vec2, c: Vec2) -> Option<[f64; 3]> {
    let v0 = b - a;
    let v1 = c - a;
    let v2 = p - a;
    let den = v0.cross(v1);
    if den.abs() < 1e-30 {
        return None; // degenerate in projection
    }
    let w1 = v2.cross(v1) / den;
    let w2 = v0.cross(v2) / den;
    Some([1.0 - w1 - w2, w1, w2])
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert!((a.dot(b) - (-1.0 + 1.0 + 6.0)).abs() < EPS);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS && c.dot(b).abs() < EPS);
        assert!(((a + b) - Vec3::new(0.0, 2.5, 5.0)).norm() < EPS);
        assert!(((a - b) - Vec3::new(2.0, 1.5, 1.0)).norm() < EPS);
        assert!(((a * 2.0) - Vec3::new(2.0, 4.0, 6.0)).norm() < EPS);
        assert!(((a / 2.0) - Vec3::new(0.5, 1.0, 1.5)).norm() < EPS);
        assert!(((-a) + a).norm() < EPS);
    }

    #[test]
    fn normalization() {
        assert!(Vec3::ZERO.normalized().is_none());
        let n = Vec3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < EPS);
        assert!((n.x - 0.6).abs() < EPS && (n.y - 0.8).abs() < EPS);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert!(a.lerp(b, 0.0).dist(a) < EPS);
        assert!(a.lerp(b, 1.0).dist(b) < EPS);
        assert!(a.lerp(b, 0.5).dist(Vec3::new(1.0, 2.0, 3.0)) < EPS);
    }

    #[test]
    fn triangle_area_right_triangle() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(3.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 4.0, 0.0);
        assert!((triangle_area(a, b, c) - 6.0).abs() < EPS);
    }

    #[test]
    fn triangle_angles_sum_to_pi() {
        let a = Vec3::new(0.1, 0.0, 0.3);
        let b = Vec3::new(2.0, 0.4, -0.7);
        let c = Vec3::new(0.9, 3.0, 1.1);
        let sum = triangle_angle(a, b, c) + triangle_angle(b, c, a) + triangle_angle(c, a, b);
        assert!((sum - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn degenerate_angle_is_zero() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        assert_eq!(triangle_angle(a, a, Vec3::new(1.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn unfold_preserves_distances() {
        let a3 = Vec3::new(0.0, 0.0, 0.0);
        let b3 = Vec3::new(2.0, 0.0, 1.0);
        let c3 = Vec3::new(0.5, 1.5, -0.3);
        let a2 = Vec2::new(1.0, 1.0);
        let dir = Vec2::new(0.6, 0.8); // unit
        let b2 = a2 + dir * a3.dist(b3);
        for side in [1.0, -1.0] {
            let c2 = unfold_point(a3, b3, c3, a2, b2, side);
            assert!((c2.dist(a2) - c3.dist(a3)).abs() < 1e-9);
            assert!((c2.dist(b2) - c3.dist(b3)).abs() < 1e-9);
        }
        // The two sides give mirror images across the edge line.
        let cp = unfold_point(a3, b3, c3, a2, b2, 1.0);
        let cm = unfold_point(a3, b3, c3, a2, b2, -1.0);
        let e = (b2 - a2) * (1.0 / a2.dist(b2));
        assert!((e.cross(cp - a2) + e.cross(cm - a2)).abs() < 1e-9);
    }

    #[test]
    fn ray_segment_basic_hit_and_miss() {
        let o = Vec2::new(0.0, 0.0);
        let d = Vec2::new(1.0, 0.0);
        let hit = ray_segment_intersection(o, d, Vec2::new(2.0, -1.0), Vec2::new(2.0, 1.0));
        let (t, u) = hit.expect("should hit");
        assert!((t - 2.0).abs() < EPS && (u - 0.5).abs() < EPS);
        // Behind the origin.
        assert!(
            ray_segment_intersection(o, d, Vec2::new(-2.0, -1.0), Vec2::new(-2.0, 1.0)).is_none()
        );
        // Parallel.
        assert!(ray_segment_intersection(o, d, Vec2::new(0.0, 1.0), Vec2::new(5.0, 1.0)).is_none());
        // Outside the segment.
        assert!(ray_segment_intersection(o, d, Vec2::new(2.0, 1.0), Vec2::new(2.0, 3.0)).is_none());
    }

    #[test]
    fn barycentric_inside_outside() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        let c = Vec2::new(0.0, 1.0);
        let w = barycentric_xy(Vec2::new(0.25, 0.25), a, b, c).unwrap();
        assert!(w.iter().all(|&x| x > 0.0));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < EPS);
        let w = barycentric_xy(Vec2::new(2.0, 2.0), a, b, c).unwrap();
        assert!(w.iter().any(|&x| x < 0.0));
        // Degenerate triangle in projection.
        assert!(barycentric_xy(Vec2::new(0.0, 0.0), a, b, b).is_none());
    }

    #[test]
    fn barycentric_reconstructs_point() {
        let a = Vec2::new(0.3, -0.2);
        let b = Vec2::new(2.1, 0.4);
        let c = Vec2::new(1.0, 1.9);
        let p = Vec2::new(1.1, 0.6);
        let w = barycentric_xy(p, a, b, c).unwrap();
        let r = a * w[0] + b * w[1] + c * w[2];
        assert!(r.dist(p) < 1e-12);
    }
}
