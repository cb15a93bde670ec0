//! Dynamic POI updates: insertion and removal without a full rebuild.
//!
//! The paper's conclusion names this as the open problem ("how to
//! efficiently update the distance oracle when there is an update on some
//! POIs"); its related work cites Fischer & Har-Peled's dynamic
//! well-separated pair decompositions \[14\]. This module implements the
//! natural terrain analogue over a built [`SeOracle`]:
//!
//! * **Removal** tombstones a site. Every stored node-pair distance stays
//!   valid for the surviving sites (distances do not change when a POI
//!   disappears), so queries between active sites keep their ε guarantee
//!   untouched; queries involving removed sites return `None`.
//! * **Insertion** of a new site `u` runs *one* SSAD from `u` (the same
//!   per-node cost as the paper's efficient construction) and then descends
//!   the compressed partition tree: a pair `⟨u, O⟩` is recorded as soon as
//!   `d(u, c_O) ≥ (2/ε + 2) · 2r_O` — the well-separation predicate of
//!   §3.3 with the new point's disk radius 0 — and the descent recurses
//!   into `O`'s children otherwise. Because leaves have radius 0, the
//!   descent always terminates, recording exact distances at worst.
//!   The recorded subtree roots partition the base sites, so each
//!   (inserted, base) query matches exactly one patch pair and inherits
//!   the ε bound by the paper's Lemma 5. Distances between two inserted
//!   sites are stored exactly.
//!
//! The overlay grows the oracle by `O(2^{2β} · log Δ / ε^{2β})` pairs per
//! insertion (the WSPD per-point bound); [`DynamicOracle::should_rebuild`]
//! flags when enough churn has accumulated that a fresh static build is
//! worthwhile, and [`DynamicOracle::rebuild`] performs it.

use crate::oracle::{BuildConfig, BuildError, SeOracle};
use geodesic::sitespace::SiteSpace;
use phash::pair_key;
use std::collections::BTreeMap;
use terrain::geom::Vec3;

/// Sentinel in the universe → member translation table.
const NOT_MEMBER: u32 = u32::MAX;

/// A [`SiteSpace`] restricted to a subset of a parent space's sites.
///
/// The SE oracle is built against this during [`DynamicOracle`]
/// construction and rebuilds, so the base oracle only ever sees active
/// sites while the parent space remains the universe for later insertions.
pub struct SubsetSpace<'a> {
    parent: &'a dyn SiteSpace,
    /// Parent site index of each member.
    members: Vec<usize>,
    /// Member index of each parent site (`NOT_MEMBER` outside the subset).
    member_of: Vec<u32>,
}

impl<'a> SubsetSpace<'a> {
    /// Restricts `parent` to `members` (parent site indices, distinct).
    ///
    /// # Panics
    /// Panics if `members` contains duplicates or out-of-range indices.
    pub fn new(parent: &'a dyn SiteSpace, members: Vec<usize>) -> Self {
        let mut member_of = vec![NOT_MEMBER; parent.n_sites()];
        for (i, &u) in members.iter().enumerate() {
            assert!(u < parent.n_sites(), "member {u} out of range");
            assert_eq!(member_of[u], NOT_MEMBER, "duplicate member {u}");
            member_of[u] = i as u32;
        }
        Self { parent, members, member_of }
    }

    /// Parent site index of member `i`.
    pub fn parent_site(&self, i: usize) -> usize {
        self.members[i]
    }
}

impl SiteSpace for SubsetSpace<'_> {
    fn n_sites(&self) -> usize {
        self.members.len()
    }

    fn site_position(&self, site: usize) -> Vec3 {
        self.parent.site_position(self.members[site])
    }

    fn sites_within(&self, site: usize, radius: f64) -> Vec<(usize, f64)> {
        self.parent
            .sites_within(self.members[site], radius)
            .into_iter()
            .filter_map(|(u, d)| {
                let m = self.member_of[u];
                (m != NOT_MEMBER).then_some((m as usize, d))
            })
            .collect()
    }

    fn all_distances(&self, site: usize) -> Vec<f64> {
        let full = self.parent.all_distances(self.members[site]);
        self.members.iter().map(|&u| full[u]).collect()
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        self.parent.distance(self.members[a], self.members[b])
    }
}

/// Errors from dynamic updates.
#[derive(Debug)]
pub enum DynamicError {
    /// The universe site index is out of range for the underlying space.
    OutOfRange(usize),
    /// Insertion of a site that is already active.
    AlreadyActive(usize),
    /// Removal of a site that is not active.
    NotActive(usize),
    /// A rebuild failed (propagates the static builder's error).
    Rebuild(BuildError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::OutOfRange(u) => write!(f, "site {u} out of range"),
            DynamicError::AlreadyActive(u) => write!(f, "site {u} is already active"),
            DynamicError::NotActive(u) => write!(f, "site {u} is not active"),
            DynamicError::Rebuild(e) => write!(f, "rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

/// Update counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicStats {
    /// SSAD runs performed by insertions since the last (re)build.
    pub insert_ssad_runs: u64,
    /// Patch pairs currently stored for inserted sites.
    pub patch_pairs: usize,
    /// Exact inserted-inserted distances stored.
    pub overlay_pairs: usize,
}

/// A [`SeOracle`] with POI insertion and removal.
///
/// Site identity is the *universe* index of the underlying [`SiteSpace`];
/// the initial active set is given at construction and updates move sites
/// in and out of it.
pub struct DynamicOracle<'s> {
    space: &'s dyn SiteSpace,
    eps: f64,
    cfg: BuildConfig,
    /// Universe index of each base site (order of the base oracle).
    base_members: Vec<usize>,
    /// Base site index per universe site (`NOT_MEMBER` when not base).
    base_of: Vec<u32>,
    oracle: SeOracle,
    removed: Vec<bool>,
    n_removed: usize,
    /// Universe index of each overlay slot (insertion order).
    overlay: Vec<usize>,
    overlay_of: Vec<u32>,
    overlay_removed: Vec<bool>,
    n_overlay_removed: usize,
    /// `(overlay slot, ctree node)` → exact SSAD distance to the node
    /// center; the per-insertion WSPD patch.
    patch: BTreeMap<u64, f64>,
    /// `pair_key(slot_a, slot_b)` → exact overlay-overlay distance.
    overlay_pairs: BTreeMap<u64, f64>,
    insert_ssad_runs: u64,
}

/// Internal resolution of a universe index to an active site.
enum ActiveRef {
    Base(usize),
    Overlay(usize),
}

impl<'s> DynamicOracle<'s> {
    /// Builds with every site of `space` initially active.
    pub fn build(
        space: &'s dyn SiteSpace,
        eps: f64,
        cfg: &BuildConfig,
    ) -> Result<Self, BuildError> {
        Self::with_initial(space, (0..space.n_sites()).collect(), eps, cfg)
    }

    /// Builds with only `initial` (universe indices) active; the remaining
    /// sites of `space` may be inserted later.
    pub fn with_initial(
        space: &'s dyn SiteSpace,
        initial: Vec<usize>,
        eps: f64,
        cfg: &BuildConfig,
    ) -> Result<Self, BuildError> {
        let subset = SubsetSpace::new(space, initial);
        let oracle = SeOracle::build(&subset, eps, cfg)?;
        let SubsetSpace { members, member_of, .. } = subset;
        let n_base = members.len();
        Ok(Self {
            space,
            eps,
            cfg: *cfg,
            base_members: members,
            base_of: member_of,
            oracle,
            removed: vec![false; n_base],
            n_removed: 0,
            overlay: Vec::new(),
            overlay_of: vec![NOT_MEMBER; space.n_sites()],
            overlay_removed: Vec::new(),
            n_overlay_removed: 0,
            patch: BTreeMap::new(),
            overlay_pairs: BTreeMap::new(),
            insert_ssad_runs: 0,
        })
    }

    fn resolve(&self, u: usize) -> Option<ActiveRef> {
        if u >= self.space.n_sites() {
            return None;
        }
        let b = self.base_of[u];
        if b != NOT_MEMBER && !self.removed[b as usize] {
            return Some(ActiveRef::Base(b as usize));
        }
        let o = self.overlay_of[u];
        if o != NOT_MEMBER && !self.overlay_removed[o as usize] {
            return Some(ActiveRef::Overlay(o as usize));
        }
        None
    }

    /// Whether universe site `u` is currently active.
    pub fn is_active(&self, u: usize) -> bool {
        self.resolve(u).is_some()
    }

    /// Active site count.
    pub fn n_active(&self) -> usize {
        (self.base_members.len() - self.n_removed) + (self.overlay.len() - self.n_overlay_removed)
    }

    /// Universe indices of all active sites, ascending.
    pub fn active_sites(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .base_members
            .iter()
            .enumerate()
            .filter(|&(b, _)| !self.removed[b])
            .map(|(_, &u)| u)
            .chain(
                self.overlay
                    .iter()
                    .enumerate()
                    .filter(|&(o, _)| !self.overlay_removed[o])
                    .map(|(_, &u)| u),
            )
            .collect();
        out.sort_unstable();
        out
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Update counters.
    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            insert_ssad_runs: self.insert_ssad_runs,
            patch_pairs: self.patch.len(),
            overlay_pairs: self.overlay_pairs.len(),
        }
    }

    /// Removes site `u` from the active set.
    pub fn remove(&mut self, u: usize) -> Result<(), DynamicError> {
        match self.resolve(u) {
            Some(ActiveRef::Base(b)) => {
                self.removed[b] = true;
                self.n_removed += 1;
                Ok(())
            }
            Some(ActiveRef::Overlay(o)) => {
                self.overlay_removed[o] = true;
                self.n_overlay_removed += 1;
                Ok(())
            }
            None => {
                if u >= self.space.n_sites() {
                    Err(DynamicError::OutOfRange(u))
                } else {
                    Err(DynamicError::NotActive(u))
                }
            }
        }
    }

    /// Inserts universe site `u` into the active set.
    ///
    /// A tombstoned *base* site is re-activated for free (its pair
    /// distances never went stale). A genuinely new site costs one SSAD
    /// plus a partition-tree descent.
    pub fn insert(&mut self, u: usize) -> Result<(), DynamicError> {
        if u >= self.space.n_sites() {
            return Err(DynamicError::OutOfRange(u));
        }
        if self.is_active(u) {
            return Err(DynamicError::AlreadyActive(u));
        }
        // Re-activation paths.
        let b = self.base_of[u];
        if b != NOT_MEMBER {
            self.removed[b as usize] = false;
            self.n_removed -= 1;
            return Ok(());
        }
        let o = self.overlay_of[u];
        if o != NOT_MEMBER {
            self.overlay_removed[o as usize] = false;
            self.n_overlay_removed -= 1;
            return Ok(());
        }

        // New site: one SSAD over the universe space.
        let all = self.space.all_distances(u);
        self.insert_ssad_runs += 1;
        let slot = self.overlay.len() as u32;

        // WSPD descent: record ⟨u, O⟩ as soon as well-separated; the new
        // point's disk has radius 0, so separation only constrains O.
        let mut recorded: Vec<(u64, f64)> = Vec::new();
        {
            let t = self.oracle.tree();
            let sep = 2.0 / self.eps + 2.0;
            let mut stack = vec![t.root];
            while let Some(node) = stack.pop() {
                let n = &t.nodes[node as usize];
                let center_u = self.base_members[n.center as usize];
                let d = all[center_u];
                let r = t.enlarged_radius(node);
                if d >= sep * r || n.children.is_empty() {
                    // Well-separated, or a leaf (radius 0: always separated
                    // unless co-located, in which case the exact distance 0
                    // is still correct).
                    recorded.push((Self::patch_key(slot, node), d));
                } else {
                    stack.extend(n.children.iter().copied());
                }
            }
        }
        self.patch.extend(recorded);

        // Exact distances to previously inserted (live or tombstoned —
        // a later re-activation must find them) overlay sites.
        for (v_slot, &v_u) in self.overlay.iter().enumerate() {
            self.overlay_pairs.insert(pair_key(v_slot as u32, slot), all[v_u]);
        }

        self.overlay.push(u);
        self.overlay_of[u] = slot;
        self.overlay_removed.push(false);
        Ok(())
    }

    #[inline]
    fn patch_key(slot: u32, node: u32) -> u64 {
        ((slot as u64) << 32) | node as u64
    }

    /// ε-approximate distance between universe sites `a` and `b`; `None`
    /// when either is not active.
    pub fn distance(&self, a: usize, b: usize) -> Option<f64> {
        let ra = self.resolve(a)?;
        let rb = self.resolve(b)?;
        if a == b {
            return Some(0.0);
        }
        Some(match (ra, rb) {
            (ActiveRef::Base(x), ActiveRef::Base(y)) => self.oracle.distance(x, y),
            (ActiveRef::Overlay(o), ActiveRef::Base(s))
            | (ActiveRef::Base(s), ActiveRef::Overlay(o)) => self.patch_distance(o as u32, s),
            (ActiveRef::Overlay(x), ActiveRef::Overlay(y)) => {
                let k = pair_key(x as u32, y as u32);
                // lint: allow(panic, "invariant: overlay pairs are recorded at insertion; the patch-cover assertion guards the other path")
                *self.overlay_pairs.get(&k).expect("overlay pair recorded at insertion")
            }
        })
    }

    fn patch_distance(&self, slot: u32, base_site: usize) -> f64 {
        let t = self.oracle.tree();
        // Exactly one recorded subtree root lies on the site's root path
        // (the descent partitions the base sites).
        for node in t.path_to_root(t.leaf_of_site[base_site]) {
            if let Some(&d) = self.patch.get(&Self::patch_key(slot, node)) {
                return d;
            }
        }
        unreachable!(
            "patch cover violated for overlay slot {slot}, base site {base_site} — \
             this is a bug in the insertion descent"
        )
    }

    /// Whether churn since the last build makes a rebuild worthwhile:
    /// overlay or tombstones exceeding half of the base size.
    pub fn should_rebuild(&self) -> bool {
        let live_overlay = self.overlay.len() - self.n_overlay_removed;
        let base = self.base_members.len().max(1);
        2 * live_overlay >= base || 2 * self.n_removed >= base
    }

    /// Rebuilds the static oracle over the current active set, clearing
    /// the overlay and tombstones.
    pub fn rebuild(&mut self) -> Result<(), DynamicError> {
        let members = self.active_sites();
        let subset = SubsetSpace::new(self.space, members);
        let oracle =
            SeOracle::build(&subset, self.eps, &self.cfg).map_err(DynamicError::Rebuild)?;
        let SubsetSpace { members, member_of, .. } = subset;
        let n_base = members.len();
        self.base_members = members;
        self.base_of = member_of;
        self.oracle = oracle;
        self.removed = vec![false; n_base];
        self.n_removed = 0;
        self.overlay.clear();
        self.overlay_of = vec![NOT_MEMBER; self.space.n_sites()];
        self.overlay_removed.clear();
        self.n_overlay_removed = 0;
        self.patch.clear();
        self.overlay_pairs.clear();
        self.insert_ssad_runs = 0;
        Ok(())
    }

    /// The static oracle currently serving base-base queries.
    pub fn base_oracle(&self) -> &SeOracle {
        &self.oracle
    }

    /// Queryable-state bytes: base oracle + overlay patch maps.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.oracle.storage_bytes()
            + self.patch.len() * (size_of::<u64>() + size_of::<f64>())
            + self.overlay_pairs.len() * (size_of::<u64>() + size_of::<f64>())
            + self.overlay.len() * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use std::sync::Arc;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;
    use terrain::refine::insert_surface_points;

    fn universe(n: usize, seed: u64) -> VertexSiteSpace {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0xD1);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites)
    }

    fn assert_eps(space: &dyn SiteSpace, dy: &DynamicOracle<'_>, eps: f64) {
        let active = dy.active_sites();
        for &a in &active {
            for &b in &active {
                let approx = dy.distance(a, b).expect("both active");
                let exact = space.distance(a, b);
                assert!(
                    (approx - exact).abs() <= eps * exact + 1e-9,
                    "sites ({a},{b}): {approx} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn insertions_keep_eps_guarantee() {
        let sp = universe(24, 1);
        let eps = 0.2;
        let initial: Vec<usize> = (0..16).collect();
        let mut dy =
            DynamicOracle::with_initial(&sp, initial, eps, &BuildConfig::default()).unwrap();
        for u in 16..sp.n_sites() {
            dy.insert(u).unwrap();
        }
        assert_eq!(dy.n_active(), sp.n_sites());
        assert_eq!(dy.stats().insert_ssad_runs, (sp.n_sites() - 16) as u64);
        assert_eq!(dy.stats().overlay_pairs, (sp.n_sites() - 16) * (sp.n_sites() - 17) / 2);
        assert_eps(&sp, &dy, eps);
    }

    #[test]
    fn removal_then_queries() {
        let sp = universe(15, 3);
        let mut dy = DynamicOracle::build(&sp, 0.25, &BuildConfig::default()).unwrap();
        dy.remove(3).unwrap();
        dy.remove(7).unwrap();
        assert_eq!(dy.n_active(), 13);
        assert!(dy.distance(3, 5).is_none());
        assert!(dy.distance(5, 7).is_none());
        assert!(!dy.is_active(3));
        assert_eps(&sp, &dy, 0.25);
    }

    #[test]
    fn reactivation_is_free() {
        let sp = universe(12, 5);
        let mut dy = DynamicOracle::build(&sp, 0.2, &BuildConfig::default()).unwrap();
        let before = dy.distance(2, 9).unwrap();
        dy.remove(2).unwrap();
        dy.insert(2).unwrap();
        assert_eq!(dy.stats().insert_ssad_runs, 0, "re-activation must not run SSAD");
        assert_eq!(dy.distance(2, 9).unwrap(), before);
    }

    #[test]
    fn mixed_churn_stays_correct() {
        let sp = universe(24, 7);
        let eps = 0.25;
        let initial: Vec<usize> = (0..14).collect();
        let mut dy =
            DynamicOracle::with_initial(&sp, initial, eps, &BuildConfig::default()).unwrap();
        dy.insert(17).unwrap();
        dy.insert(20).unwrap();
        dy.remove(3).unwrap();
        dy.insert(22).unwrap();
        dy.remove(17).unwrap(); // overlay removal
        dy.insert(17).unwrap(); // overlay re-activation
        dy.remove(0).unwrap();
        assert_eps(&sp, &dy, eps);
    }

    #[test]
    fn error_paths() {
        let sp = universe(10, 9);
        let mut dy =
            DynamicOracle::with_initial(&sp, (0..8).collect(), 0.2, &BuildConfig::default())
                .unwrap();
        assert!(matches!(dy.insert(3), Err(DynamicError::AlreadyActive(3))));
        assert!(matches!(dy.insert(999), Err(DynamicError::OutOfRange(999))));
        assert!(matches!(dy.remove(9), Err(DynamicError::NotActive(9))));
        assert!(matches!(dy.remove(999), Err(DynamicError::OutOfRange(999))));
        dy.insert(9).unwrap();
        assert!(matches!(dy.insert(9), Err(DynamicError::AlreadyActive(9))));
    }

    #[test]
    fn rebuild_matches_overlay_answers_within_eps() {
        let sp = universe(20, 11);
        let eps = 0.2;
        let mut dy =
            DynamicOracle::with_initial(&sp, (0..10).collect(), eps, &BuildConfig::default())
                .unwrap();
        for u in 10..20 {
            dy.insert(u).unwrap();
        }
        assert!(dy.should_rebuild());
        dy.rebuild().unwrap();
        assert!(!dy.should_rebuild());
        assert_eq!(dy.stats().patch_pairs, 0);
        assert_eq!(dy.n_active(), 20);
        assert_eps(&sp, &dy, eps);
    }

    #[test]
    fn should_rebuild_thresholds() {
        let sp = universe(20, 13);
        let mut dy =
            DynamicOracle::with_initial(&sp, (0..16).collect(), 0.3, &BuildConfig::default())
                .unwrap();
        assert!(!dy.should_rebuild());
        for u in 0..8 {
            dy.remove(u).unwrap();
        }
        assert!(dy.should_rebuild(), "half the base removed");
    }

    #[test]
    fn subset_space_is_consistent_view() {
        let sp = universe(12, 15);
        let members = vec![1usize, 4, 7, 10];
        let sub = SubsetSpace::new(&sp, members.clone());
        assert_eq!(sub.n_sites(), 4);
        for (i, &u) in members.iter().enumerate() {
            assert_eq!(sub.parent_site(i), u);
            assert_eq!(sub.site_position(i), sp.site_position(u));
        }
        let all = sub.all_distances(0);
        for (i, &u) in members.iter().enumerate() {
            assert!((all[i] - sp.distance(1, u)).abs() < 1e-12);
        }
        let r = all.iter().cloned().fold(0.0, f64::max);
        let near = sub.sites_within(0, r);
        assert_eq!(near.len(), 4, "all members within the max radius");
        for (i, d) in near {
            assert!((all[i] - d).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn subset_space_rejects_duplicates() {
        let sp = universe(8, 17);
        let _ = SubsetSpace::new(&sp, vec![1, 2, 1]);
    }

    #[test]
    fn overlay_overlay_distances_are_exact() {
        let sp = universe(16, 19);
        let mut dy =
            DynamicOracle::with_initial(&sp, (0..12).collect(), 0.3, &BuildConfig::default())
                .unwrap();
        for u in 12..16 {
            dy.insert(u).unwrap();
        }
        for a in 12..16 {
            for b in 12..16 {
                let got = dy.distance(a, b).unwrap();
                let want = sp.distance(a, b);
                assert!((got - want).abs() < 1e-9, "({a},{b}): {got} vs {want}");
            }
        }
    }
}
