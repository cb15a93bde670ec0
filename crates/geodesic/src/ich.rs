//! Exact geodesic SSAD via continuous Dijkstra (window propagation).
//!
//! This is the reproduction's stand-in for the exact shortest-path
//! algorithms the paper leans on (\[26\] Mitchell–Mount–Papadimitriou,
//! \[6\] Chen–Han, \[34\] Xin–Wang's improved Chen–Han). It follows the
//! ICH recipe:
//!
//! * *windows* — intervals on mesh edges recording the unfolded distance to
//!   a (pseudo-)source — propagate across faces in a best-first order;
//! * *vertex labels* are relaxed whenever a window reaches an edge endpoint
//!   or an apex vertex falls inside a window's cone;
//! * *pseudo-sources* spawn at saddle and boundary vertices when they
//!   settle, restarting circular wavefronts there (geodesics only bend at
//!   such vertices);
//! * windows dominated by through-vertex paths are pruned (the one-sided
//!   monotonicity argument documented on `Search::dominated` makes the
//!   endpoint tests sound).
//!
//! Because every event key is a valid lower bound on anything the event can
//! produce, the search is label-setting: when the queue's key passes a
//! vertex's label, that label is final. This yields exactly the two SSAD
//! stopping criteria of §3.2 Implementation Detail 2 of the paper.
//!
//! Distances returned at vertices are **exact** surface geodesic distances
//! (up to floating-point error), verified in the test-suite against closed
//! forms on planes, tents and unfolded strips, and against converging
//! Steiner-graph upper bounds on fractal terrain.
//!
//! # Hot-path design
//!
//! Oracle construction runs this engine hundreds of times per build, so
//! the per-run machinery is built for repetition:
//!
//! * a **scratch arena** per engine recycles the window list, the event
//!   heap, and the pseudo-source flags across runs (checked out of a pool,
//!   so concurrent runs never serialize);
//! * one **indexed 4-ary heap** ([`crate::heap::IndexedMinHeap`]) holds
//!   both event kinds — pseudo-source openings keyed by vertex (decreased
//!   in place as labels improve, so stale entries never exist) and
//!   windows keyed past the vertex range (insert-once);
//! * **horizon pruning**: candidate windows and pseudo-sources whose best
//!   offer exceeds the stop criterion's prune bound are dropped at
//!   creation. Under [`Stop::Radius`] the bound is fixed; under
//!   [`Stop::Targets`] it activates once every target is reached and then
//!   tracks the shrinking largest target label. A run that drains its
//!   queue without ever pruning certifies an infinite
//!   [`SsadResult::finalized`] horizon, which the SSAD-reuse cache
//!   exploits to serve wider later queries.

use crate::dijkstra::StopWatcher;
use crate::engine::{GeodesicEngine, SsadResult, SsadStats, Stop};
use crate::heap::IndexedMinHeap;
use std::sync::{Arc, Mutex};
use terrain::geom::{ray_segment_intersection, unfold_point, Vec2};
use terrain::{EdgeId, FaceId, TerrainMesh, VertexId, NO_FACE};

/// Relative tolerance for window-interval arithmetic (scaled by edge length).
const LEN_EPS: f64 = 1e-11;
/// Slack used when testing domination of a window by vertex labels.
const DOM_EPS: f64 = 1e-12;

/// A window: the trace of a pencil of unfolded straight-line paths from a
/// pseudo-source crossing one mesh edge.
#[derive(Debug, Clone, Copy)]
struct Window {
    edge: EdgeId,
    /// Face the window propagates into (opposite the pseudo-source side).
    to_face: FaceId,
    /// Interval along the edge's canonical `v[0] → v[1]` direction.
    b0: f64,
    b1: f64,
    /// Unfolded distances from the pseudo-source to the interval endpoints.
    d0: f64,
    d1: f64,
    /// Distance from the real source to the pseudo-source.
    sigma: f64,
    /// Cached planar pseudo-source position ([`Window::source_2d`]),
    /// computed once at window creation and reused at propagation.
    src: Vec2,
}

impl Window {
    /// Planar pseudo-source position in the frame where the edge occupies
    /// `[0, L] × {0}` and the source side is `y ≥ 0`.
    ///
    /// Positions on the edge line determine the source only up to
    /// reflection, and reflection preserves all distances used downstream,
    /// so fixing `y ≥ 0` is sound.
    fn source_2d(b0: f64, b1: f64, d0: f64, d1: f64) -> Vec2 {
        let db = b1 - b0;
        let sx = (d0 * d0 - d1 * d1 + b1 * b1 - b0 * b0) / (2.0 * db);
        let sy2 = d0 * d0 - (sx - b0) * (sx - b0);
        Vec2::new(sx, if sy2 > 0.0 { sy2.sqrt() } else { 0.0 })
    }

    /// Smallest distance this window offers to any point of its interval.
    fn min_dist(&self) -> f64 {
        let s = self.src;
        let d = if s.x < self.b0 {
            self.d0
        } else if s.x > self.b1 {
            self.d1
        } else {
            s.y
        };
        self.sigma + d
    }
}

/// Reusable per-run buffers: window storage, the event heap, and the
/// pseudo-source flags.
///
/// Oracle construction issues an `IchEngine` run per cache miss — hundreds
/// per build — and the window list alone can grow to tens of thousands of
/// entries per run. Recycling these buffers keeps every run after the first
/// allocation-free on the hot path (only the returned `dist` array is
/// fresh, since the caller owns it).
#[derive(Debug, Default)]
struct Scratch {
    spawned: Vec<bool>,
    windows: Vec<Window>,
    heap: IndexedMinHeap,
}

/// Exact continuous-Dijkstra geodesic engine.
///
/// The engine is `Send + Sync`; concurrent [`GeodesicEngine::ssad`] calls
/// are fine (construction pools do exactly that). Each run checks a scratch
/// buffer out of a shared pool and returns it afterwards, so the arena
/// reuse never serializes concurrent runs — at worst a fresh scratch is
/// allocated.
#[derive(Debug)]
pub struct IchEngine {
    mesh: Arc<TerrainMesh>,
    /// Hard cap on created windows; exceeding it indicates a pathological
    /// input (or a bug) and panics rather than exhausting memory.
    max_windows: usize,
    /// Pool of recycled per-run buffers (never larger than the peak number
    /// of concurrent runs).
    scratch: Mutex<Vec<Scratch>>,
}

impl Clone for IchEngine {
    /// Clones share the mesh but start with an empty scratch pool (scratch
    /// is a pure accelerator, never part of the engine's observable state).
    fn clone(&self) -> Self {
        Self { mesh: self.mesh.clone(), max_windows: self.max_windows, scratch: Mutex::default() }
    }
}

impl IchEngine {
    /// An exact engine over `mesh` with the default window budget.
    pub fn new(mesh: Arc<TerrainMesh>) -> Self {
        Self { mesh, max_windows: 200_000_000, scratch: Mutex::default() }
    }
}

impl GeodesicEngine for IchEngine {
    fn name(&self) -> &'static str {
        "ich-exact"
    }

    fn mesh(&self) -> &TerrainMesh {
        &self.mesh
    }

    fn ssad(&self, source: VertexId, stop: Stop<'_>) -> SsadResult {
        let mut scratch =
            // lint: allow(panic, "scratch-arena lock; poisoning means a sibling engine run already panicked")
            self.scratch.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        let result = Search::new(&self.mesh, self.max_windows, &mut scratch).run(source, stop);
        // lint: allow(panic, "scratch-arena lock; poisoning means a sibling engine run already panicked")
        self.scratch.lock().expect("scratch pool poisoned").push(scratch);
        result
    }
}

/// Event-slot layout in the indexed heap: slots `0..n_vertices` are
/// pseudo-source openings (decrease-key as labels improve), slots
/// `n_vertices + i` are window `i` propagations (insert-once).
struct Search<'m> {
    mesh: &'m TerrainMesh,
    dist: Vec<f64>,
    scratch: &'m mut Scratch,
    stats: SsadStats,
    /// Current prune bound: candidate windows and pseudo-sources whose best
    /// offer exceeds it are dropped eagerly. Fixed under [`Stop::Radius`];
    /// tightens dynamically under [`Stop::Targets`] once every target is
    /// reached (see [`StopWatcher::prune_bound`]).
    bound: f64,
    /// Whether anything was dropped via `bound` — if not, a drained queue
    /// means the run was exhaustive and the finality horizon is infinite.
    pruned: bool,
    max_windows: usize,
}

impl<'m> Search<'m> {
    fn new(mesh: &'m TerrainMesh, max_windows: usize, scratch: &'m mut Scratch) -> Self {
        let n = mesh.n_vertices();
        scratch.spawned.clear();
        scratch.spawned.resize(n, false);
        scratch.windows.clear();
        scratch.heap.reset(n);
        Self {
            mesh,
            dist: vec![f64::INFINITY; n],
            scratch,
            stats: SsadStats::default(),
            bound: f64::INFINITY,
            pruned: false,
            max_windows,
        }
    }

    fn run(mut self, source: VertexId, stop: Stop<'_>) -> SsadResult {
        let n = self.mesh.n_vertices() as u32;
        self.dist[source as usize] = 0.0;
        let mut watcher = StopWatcher::new(stop, &self.dist);
        watcher.on_relax(source, 0.0);
        self.bound = watcher.prune_bound(&self.dist);
        self.open_pseudo_source(source, 0.0, &mut watcher);

        let mut stopped = false;
        while let Some((key, slot)) = self.scratch.heap.pop() {
            self.stats.events_processed += 1;
            self.stats.max_key = key;
            if watcher.done(key, &self.dist) {
                stopped = true;
                break;
            }
            self.bound = self.bound.min(watcher.prune_bound(&self.dist));
            if slot < n {
                // Pseudo-source opening. The heap entry's key is decreased
                // in lockstep with the label, so it is never stale.
                let v = slot;
                debug_assert!(!self.scratch.spawned[v as usize]);
                debug_assert_eq!(key, self.dist[v as usize]);
                self.scratch.spawned[v as usize] = true;
                let d = self.dist[v as usize];
                self.open_pseudo_source(v, d, &mut watcher);
            } else {
                let w = self.scratch.windows[(slot - n) as usize];
                if key > self.bound {
                    // The bound tightened after this window was enqueued.
                    self.pruned = true;
                    continue;
                }
                if self.dominated(&w) {
                    continue;
                }
                self.propagate(&w, &mut watcher);
            }
        }

        let finalized = watcher.finalized(stopped, self.pruned, &self.dist);
        SsadResult { dist: self.dist, finalized, stats: self.stats }
    }

    /// Lowers `dist[v]`; schedules (or re-keys) a pseudo-source opening when
    /// `v` is a saddle or boundary vertex.
    fn relax(&mut self, v: VertexId, nd: f64, watcher: &mut StopWatcher<'_>) {
        if nd < self.dist[v as usize] {
            self.dist[v as usize] = nd;
            watcher.on_relax(v, nd);
            if !self.scratch.spawned[v as usize] && self.mesh.is_pseudo_source_vertex(v) {
                if nd <= self.bound {
                    self.scratch.heap.push_or_decrease(v, nd);
                } else {
                    self.pruned = true;
                }
            }
        }
    }

    /// Emits the circular wavefront of a (pseudo-)source at vertex `v`:
    /// direct relaxations along incident edges plus one full-edge window per
    /// incident face.
    fn open_pseudo_source(&mut self, v: VertexId, d: f64, watcher: &mut StopWatcher<'_>) {
        for &e in self.mesh.vertex_edges(v) {
            let edge = self.mesh.edge(e);
            let u = if edge.v[0] == v { edge.v[1] } else { edge.v[0] };
            self.relax(u, d + self.mesh.edge_len(e), watcher);
        }
        for &f in self.mesh.vertex_faces(v) {
            let e = self
                .mesh
                .face_edges(f)
                .into_iter()
                .find(|&e| {
                    let ev = self.mesh.edge(e).v;
                    ev[0] != v && ev[1] != v
                })
                // lint: allow(panic, "invariant: every validated mesh face has an edge opposite each vertex")
                .expect("face has an edge opposite each vertex");
            let ev = self.mesh.edge(e).v;
            let pv = self.mesh.vertex(v);
            let b1 = self.mesh.edge_len(e);
            let d0 = pv.dist(self.mesh.vertex(ev[0]));
            let d1 = pv.dist(self.mesh.vertex(ev[1]));
            let w = Window {
                edge: e,
                to_face: self.mesh.other_face(e, f).unwrap_or(NO_FACE),
                b0: 0.0,
                b1,
                d0,
                d1,
                sigma: d,
                src: Window::source_2d(0.0, b1, d0, d1),
            };
            self.add_window(w, watcher);
        }
    }

    /// Whether through-endpoint paths dominate `w` everywhere on its
    /// interval.
    ///
    /// With the source at `(sx, sy)` and the edge on the x-axis,
    /// `g(p) = σ + |S − p| − (label(v0) + p)` is non-increasing in `p`
    /// (its derivative is `(p − sx)/|S − p| − 1 ≤ 0`), so domination by the
    /// left endpoint only needs checking at `p = b1`; symmetrically the
    /// right endpoint only needs checking at `p = b0`.
    fn dominated(&self, w: &Window) -> bool {
        let ev = self.mesh.edge(w.edge).v;
        let len = self.mesh.edge_len(w.edge);
        let la = self.dist[ev[0] as usize];
        let lb = self.dist[ev[1] as usize];
        let scale = w.sigma + w.d0 + w.d1 + len;
        la + w.b1 <= w.sigma + w.d1 + DOM_EPS * scale
            || lb + (len - w.b0) <= w.sigma + w.d0 + DOM_EPS * scale
    }

    /// Validates, prunes, relaxes endpoint labels, and enqueues a window.
    fn add_window(&mut self, w: Window, watcher: &mut StopWatcher<'_>) {
        let len = self.mesh.edge_len(w.edge);
        if !(w.b0.is_finite() && w.b1.is_finite() && w.d0.is_finite() && w.d1.is_finite()) {
            return;
        }
        if w.b1 - w.b0 < LEN_EPS * len {
            return;
        }
        // Valid path lengths through the window's nearest interval point,
        // completed along the edge — always safe upper bounds.
        let ev = self.mesh.edge(w.edge).v;
        self.relax(ev[0], w.sigma + w.d0 + w.b0, watcher);
        self.relax(ev[1], w.sigma + w.d1 + (len - w.b1), watcher);

        let key = w.min_dist();
        if key > self.bound {
            // Lower bound beyond the search horizon: the window cannot
            // improve any label the run promises as final.
            self.pruned = true;
            return;
        }
        if self.dominated(&w) {
            return;
        }
        if w.to_face == NO_FACE {
            return; // boundary: nothing to propagate into
        }
        assert!(
            self.scratch.windows.len() < self.max_windows,
            "ICH window budget ({}) exhausted — pathological mesh or bug",
            self.max_windows
        );
        let idx = self.scratch.windows.len() as u32;
        self.scratch.windows.push(w);
        self.stats.events_created += 1;
        let slot = self.mesh.n_vertices() as u32 + idx;
        self.scratch.heap.push_or_decrease(slot, key);
    }

    /// Unfolds `w` across its `to_face` and emits the clipped child windows.
    fn propagate(&mut self, w: &Window, watcher: &mut StopWatcher<'_>) {
        let g = w.to_face;
        let ev = self.mesh.edge(w.edge).v;
        let (va, vb) = (ev[0], ev[1]);
        let len = self.mesh.edge_len(w.edge);
        let opp = self.mesh.opposite_vertex(g, w.edge);

        let a2 = Vec2::ZERO;
        let b2 = Vec2::new(len, 0.0);
        let c2 = unfold_point(
            self.mesh.vertex(va),
            self.mesh.vertex(vb),
            self.mesh.vertex(opp),
            a2,
            b2,
            -1.0,
        );
        let s = w.src;
        let dir0 = Vec2::new(w.b0, 0.0) - s;
        let dir1 = Vec2::new(w.b1, 0.0) - s;
        let dir_c = c2 - s;

        // Cone membership of the apex: inside ⟺ dir0 ⪯ dirC ⪯ dir1 in the
        // clockwise-from-left ordering (cross(u, v) ≥ 0 ⟺ u left of v for
        // downward directions).
        let c_after_left = dir0.cross(dir_c) >= 0.0;
        let c_before_right = dir_c.cross(dir1) >= 0.0;

        let i0l = ray_segment_intersection(s, dir0, a2, c2);
        let i1l = ray_segment_intersection(s, dir1, a2, c2);
        let i0r = ray_segment_intersection(s, dir0, c2, b2);
        let i1r = ray_segment_intersection(s, dir1, c2, b2);

        if c_after_left && c_before_right {
            // Apex inside the cone: illuminate both far edges and the apex.
            self.relax(opp, w.sigma + dir_c.norm(), watcher);
            let u_start = i0l.map_or(0.0, |(_, u)| u);
            self.emit(g, va, opp, a2, c2, u_start, 1.0, s, w.sigma, watcher);
            let u_end = i1r.map_or(1.0, |(_, u)| u);
            self.emit(g, opp, vb, c2, b2, 0.0, u_end, s, w.sigma, watcher);
        } else if !c_after_left {
            // Apex left of the cone: all light lands on the right far edge.
            let u_s = i0r.map_or(0.0, |(_, u)| u);
            let u_e = i1r.map_or(1.0, |(_, u)| u);
            self.emit(g, opp, vb, c2, b2, u_s, u_e, s, w.sigma, watcher);
        } else {
            // Apex right of the cone: all light lands on the left far edge.
            let u_s = i0l.map_or(0.0, |(_, u)| u);
            let u_e = i1l.map_or(1.0, |(_, u)| u);
            self.emit(g, va, opp, a2, c2, u_s, u_e, s, w.sigma, watcher);
        }
    }

    /// Builds the child window on the edge `from_v → to_v` of face `g`
    /// (unfolded endpoints `pa → pb`), lit on parameters `[u_lo, u_hi]`.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        g: FaceId,
        from_v: VertexId,
        to_v: VertexId,
        pa: Vec2,
        pb: Vec2,
        u_lo: f64,
        u_hi: f64,
        s: Vec2,
        sigma: f64,
        watcher: &mut StopWatcher<'_>,
    ) {
        // Deliberately `!(> 0.0)` rather than `<= 0.0`: a NaN window (from a
        // degenerate unfolding) must also bail out.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(u_hi - u_lo > 0.0) {
            return;
        }
        let e =
            // lint: allow(panic, "invariant: windows propagate only across edges of the face being unfolded")
            self.mesh.edge_between(from_v, to_v).expect("face edge exists between its vertices");
        let len = self.mesh.edge_len(e);
        let p_lo = pa + (pb - pa) * u_lo;
        let p_hi = pa + (pb - pa) * u_hi;
        let d_lo = s.dist(p_lo);
        let d_hi = s.dist(p_hi);
        let ev = self.mesh.edge(e).v;
        let (b0, b1, d0, d1) = if ev[0] == from_v {
            (u_lo * len, u_hi * len, d_lo, d_hi)
        } else {
            ((1.0 - u_hi) * len, (1.0 - u_lo) * len, d_hi, d_lo)
        };
        let (b0, b1) = (b0.max(0.0), b1.min(len));
        let w = Window {
            edge: e,
            to_face: self.mesh.other_face(e, g).unwrap_or(NO_FACE),
            b0,
            b1,
            d0,
            d1,
            sigma,
            src: Window::source_2d(b0, b1, d0, d1),
        };
        self.add_window(w, watcher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::EdgeGraphEngine;
    use terrain::gen::{diamond_square, tent, Heightfield};

    fn ich(mesh: TerrainMesh) -> IchEngine {
        IchEngine::new(Arc::new(mesh))
    }

    #[test]
    fn flat_grid_matches_euclidean() {
        // On a flat terrain the geodesic distance is the planar Euclidean
        // distance — the strongest end-to-end correctness test.
        let m = Heightfield::flat(7, 7, 1.0, 1.0).to_mesh();
        let eng = ich(m);
        let r = eng.ssad(0, Stop::Exhaust);
        for j in 0..7usize {
            for i in 0..7usize {
                let v = j * 7 + i;
                let expect = ((i * i + j * j) as f64).sqrt();
                assert!(
                    (r.dist[v] - expect).abs() < 1e-9,
                    "vertex ({i},{j}): got {} want {expect}",
                    r.dist[v]
                );
            }
        }
    }

    #[test]
    fn flat_grid_interior_source() {
        let m = Heightfield::flat(9, 9, 0.5, 0.5).to_mesh();
        let eng = ich(m);
        let src = 4 * 9 + 4; // center
        let r = eng.ssad(src as u32, Stop::Exhaust);
        for j in 0..9usize {
            for i in 0..9usize {
                let v = j * 9 + i;
                let dx = (i as f64 - 4.0) * 0.5;
                let dy = (j as f64 - 4.0) * 0.5;
                let expect = (dx * dx + dy * dy).sqrt();
                assert!(
                    (r.dist[v] - expect).abs() < 1e-9,
                    "vertex ({i},{j}): got {} want {expect}",
                    r.dist[v]
                );
            }
        }
    }

    #[test]
    fn tent_unfolds_exactly() {
        // Tent with ridge at x = 4, slope length s = sqrt(16 + h^2) per side.
        // Geodesic between two points at the same y on opposite feet
        // unfolds to a straight line of length 2 s (same y), and the
        // distance from a foot to the ridge top at the same y is s.
        let h = 3.0;
        let hf = tent(9, 5, 1.0, 1.0, h);
        let m = hf.to_mesh();
        let eng = ich(m);
        let slope = (16.0 + h * h).sqrt();
        // Vertex ids: (i, j) -> j*9 + i. Foot left (0, 2) = 18; ridge (4, 2)
        // = 22; foot right (8, 2) = 26.
        let r = eng.ssad(18, Stop::Exhaust);
        assert!((r.dist[22] - slope).abs() < 1e-9, "to ridge: {}", r.dist[22]);
        assert!((r.dist[26] - 2.0 * slope).abs() < 1e-9, "across: {}", r.dist[26]);
    }

    #[test]
    fn tent_cross_ridge_diagonal() {
        // Between (x=3, y=1) and (x=5, y=3) on a tent with ridge x=4:
        // unfold both slopes into a plane; the unfolded horizontal span is
        // the along-slope distance. With dx measured along each slope,
        // slope factor k = sqrt(1 + (h/4)^2) per unit x.
        let h = 2.0;
        let hf = tent(9, 5, 1.0, 1.0, h);
        let m = hf.to_mesh();
        let eng = ich(m);
        let k = (1.0 + (h / 4.0) * (h / 4.0)).sqrt();
        let a = 9 + 3; // (3, 1)
        let b = 3 * 9 + 5; // (5, 3)

        // Unfolded x-span: (4 - 3)·k + (5 - 4)·k = 2k; y-span: 2.
        let expect = ((2.0 * k) * (2.0 * k) + 4.0).sqrt();
        let d = eng.distance(a as u32, b as u32);
        assert!((d - expect).abs() < 1e-9, "got {d} want {expect}");
    }

    #[test]
    fn geodesic_at_least_euclidean_at_most_graph() {
        let m = diamond_square(4, 0.65, 31).to_mesh();
        let mesh = Arc::new(m);
        let exact = IchEngine::new(mesh.clone());
        let graph = EdgeGraphEngine::new(mesh.clone());
        let r_exact = exact.ssad(0, Stop::Exhaust);
        let r_graph = graph.ssad(0, Stop::Exhaust);
        for v in 0..mesh.n_vertices() {
            let eu = mesh.vertex(0).dist(mesh.vertex(v as u32));
            assert!(
                r_exact.dist[v] >= eu - 1e-9,
                "v{v}: geodesic {} < euclidean {eu}",
                r_exact.dist[v]
            );
            assert!(
                r_exact.dist[v] <= r_graph.dist[v] + 1e-9,
                "v{v}: geodesic {} > graph {}",
                r_exact.dist[v],
                r_graph.dist[v]
            );
        }
    }

    #[test]
    fn symmetry_on_fractal() {
        let m = diamond_square(3, 0.6, 7).to_mesh();
        let eng = ich(m);
        for (a, b) in [(0u32, 80u32), (12, 77), (40, 44)] {
            let ab = eng.distance(a, b);
            let ba = eng.distance(b, a);
            assert!((ab - ba).abs() < 1e-9, "d({a},{b})={ab} but d({b},{a})={ba}");
        }
    }

    #[test]
    fn radius_stop_matches_full_run() {
        let m = diamond_square(4, 0.6, 13).to_mesh();
        let eng = ich(m);
        let full = eng.ssad(100, Stop::Exhaust);
        let radius = 4.0;
        let part = eng.ssad(100, Stop::Radius(radius));
        for v in 0..full.dist.len() {
            if full.dist[v] <= radius {
                assert!(
                    (part.dist[v] - full.dist[v]).abs() < 1e-9,
                    "v{v}: {} vs {}",
                    part.dist[v],
                    full.dist[v]
                );
            }
        }
        assert!(part.stats.events_processed <= full.stats.events_processed);
    }

    #[test]
    fn targets_stop_matches_full_run() {
        let m = diamond_square(4, 0.6, 19).to_mesh();
        let eng = ich(m);
        let full = eng.ssad(3, Stop::Exhaust);
        let targets: Vec<u32> = vec![288, 144, 12, 250];
        let part = eng.ssad(3, Stop::Targets(&targets));
        for &t in &targets {
            assert!((part.dist[t as usize] - full.dist[t as usize]).abs() < 1e-9, "target {t}");
        }
    }

    #[test]
    fn triangle_inequality_samples() {
        let m = diamond_square(3, 0.7, 23).to_mesh();
        let eng = ich(m);
        let pts = [0u32, 15, 40, 62, 80];
        let mut d = vec![vec![0.0; pts.len()]; pts.len()];
        for (i, &a) in pts.iter().enumerate() {
            let r = eng.ssad(a, Stop::Targets(&pts));
            for (j, &b) in pts.iter().enumerate() {
                d[i][j] = r.dist[b as usize];
            }
        }
        for i in 0..pts.len() {
            assert!(d[i][i].abs() < 1e-12);
            for j in 0..pts.len() {
                for k in 0..pts.len() {
                    assert!(
                        d[i][j] <= d[i][k] + d[k][j] + 1e-9,
                        "triangle violated: d[{i}][{j}]={} > {} + {}",
                        d[i][j],
                        d[i][k],
                        d[k][j]
                    );
                }
            }
        }
    }

    #[test]
    fn steep_terrain_exceeds_euclidean_substantially() {
        // A rough fractal surface must have geodesics measurably longer than
        // straight-line 3-D distance for far pairs (the paper cites ratios
        // up to 300%; we only assert it is non-trivially larger).
        let mut hf = diamond_square(5, 0.75, 3);
        hf.scale_heights(3.0);
        let m = hf.to_mesh();
        let n = m.n_vertices();
        let mesh = Arc::new(m);
        let eng = IchEngine::new(mesh.clone());
        let r = eng.ssad(0, Stop::Targets(&[(n - 1) as u32]));
        let geo = r.dist[n - 1];
        let eu = mesh.vertex(0).dist(mesh.vertex((n - 1) as u32));
        assert!(geo > eu * 1.02, "geodesic {geo} vs euclidean {eu}");
    }
}
