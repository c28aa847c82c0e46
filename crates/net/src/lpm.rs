//! DIR-24-8 longest-prefix-match, the algorithm behind DPDK's `rte_lpm`
//! used by the paper's l3fwd configuration (§5.4: "the Longest Prefix
//! Match (LPM) algorithm, a routing table containing 16,000 entries").
//!
//! A 2^24-entry first-level table resolves prefixes up to /24 in one
//! memory access; longer prefixes indirect into 256-entry second-level
//! groups.
//!
//! Two ways to fill a table, with identical results array for array:
//!
//! - [`Lpm::from_routes`] builds a whole table in one pass. It writes
//!   each of the 2^24 first-level entries once, left to right, from the
//!   sorted /24-and-shorter prefixes, then installs the /25+ routes. On
//!   the paper's 16k-route table this is tens of milliseconds.
//! - [`Lpm::add`] installs one route into a live table. It repaints every
//!   first-level entry the prefix covers (2^(24 − depth) of them, so a /8
//!   costs 65 536 writes) plus the second-level groups inside it, which
//!   makes a 16k-route `add` loop several times slower than
//!   `from_routes`.
//!
//! [`Lpm::delete`] rebuilds through the same one-pass path.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A next-hop identifier (15 bits usable, as in `rte_lpm`).
pub type NextHop = u16;

const TBL24_SIZE: usize = 1 << 24;
const TBL8_GROUP: usize = 256;
/// Entry flag: the low 15 bits index a tbl8 group instead of naming a
/// next hop.
const EXT: u16 = 0x8000;
const INVALID: u16 = u16::MAX;
/// Depth recorded for a tbl24 entry that points into a tbl8 group. It
/// exceeds every /24-or-shorter depth, so painting a short route skips
/// the entry without a branch on its flag. Invalid entries have depth 0.
const EXT_DEPTH: u8 = u8::MAX;

/// One routing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    /// Network address (host byte order).
    pub prefix: u32,
    /// Prefix length, 1–32.
    pub depth: u8,
    /// Next hop delivered on match.
    pub next_hop: NextHop,
}

impl Route {
    /// Creates a route, masking the prefix to its depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is not in 1..=32 or `next_hop` ≥ 0x8000.
    #[must_use]
    pub fn new(prefix: u32, depth: u8, next_hop: NextHop) -> Self {
        assert!((1..=32).contains(&depth), "depth must be 1..=32");
        assert!(next_hop < EXT, "next hop must fit in 15 bits");
        Self {
            prefix: prefix & Self::mask(depth),
            depth,
            next_hop,
        }
    }

    fn mask(depth: u8) -> u32 {
        if depth == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(depth))
        }
    }

    /// True if `ip` falls inside this prefix.
    #[must_use]
    pub fn matches(&self, ip: u32) -> bool {
        ip & Self::mask(self.depth) == self.prefix
    }
}

/// The DIR-24-8 table.
///
/// # Examples
///
/// ```
/// use xui_net::lpm::{Lpm, Route};
///
/// let mut lpm = Lpm::new();
/// lpm.add(Route::new(0x0a000000, 8, 1)); // 10.0.0.0/8 → 1
/// lpm.add(Route::new(0x0a010000, 16, 2)); // 10.1.0.0/16 → 2
/// assert_eq!(lpm.lookup(0x0a020304), Some(1));
/// assert_eq!(lpm.lookup(0x0a010304), Some(2), "longest prefix wins");
/// assert_eq!(lpm.lookup(0x0b000000), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Lpm {
    tbl24: Vec<u16>,
    /// Depth of the route behind each tbl24 entry: 0 if invalid,
    /// [`EXT_DEPTH`] if the entry points into a tbl8 group.
    tbl24_depth: Vec<u8>,
    tbl8: Vec<u16>,
    tbl8_depth: Vec<u8>,
    /// Installed rules: `(depth, prefix)` → next hop.
    rules: BTreeMap<(u8, u32), NextHop>,
    /// tbl24 index → tbl8 group, for every entry that points into one.
    groups: BTreeMap<u32, u16>,
}

impl std::fmt::Debug for Lpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lpm")
            .field("rules", &self.rules.len())
            .field("tbl8_groups", &self.groups.len())
            .finish()
    }
}

impl Default for Lpm {
    fn default() -> Self {
        Self::new()
    }
}

impl Lpm {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::from_routes(&[])
    }

    /// Builds the table holding `routes` in one pass. When a
    /// `(prefix, depth)` pair repeats, the last next hop wins, exactly as
    /// if the routes were [`add`](Self::add)ed in order; the resulting
    /// arrays, tbl8 group numbering included, equal those of that `add`
    /// loop.
    #[must_use]
    pub fn from_routes(routes: &[Route]) -> Self {
        let mut lpm = Self {
            tbl24: Vec::with_capacity(TBL24_SIZE),
            tbl24_depth: Vec::with_capacity(TBL24_SIZE),
            tbl8: Vec::new(),
            tbl8_depth: Vec::new(),
            rules: BTreeMap::new(),
            groups: BTreeMap::new(),
        };
        // One insert per route, in order: a repeated pair keeps the last hop.
        lpm.rules.extend(routes.iter().map(|r| ((r.depth, r.prefix), r.next_hop)));
        lpm.build(routes.iter().filter(|r| r.depth > 24).copied());
        lpm
    }

    /// Number of installed rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rule is installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Installed rules, shallowest first and by prefix within a depth.
    pub fn rules(&self) -> impl Iterator<Item = Route> + '_ {
        self.rules
            .iter()
            .map(|(&(depth, prefix), &next_hop)| Route { prefix, depth, next_hop })
    }

    /// Adds (or overwrites) a route.
    pub fn add(&mut self, route: Route) {
        self.rules.insert((route.depth, route.prefix), route.next_hop);
        if route.depth <= 24 {
            self.add_short(route);
        } else {
            self.add_long(route);
        }
    }

    fn add_short(&mut self, route: Route) {
        let first = (route.prefix >> 8) as usize;
        let span = first..first + (1usize << (24 - route.depth));
        paint(&mut self.tbl24[span.clone()], &mut self.tbl24_depth[span.clone()], route);
        // The EXT entries kept their group pointers; push the route into
        // those groups where it is at least as deep.
        for (_, &group) in self.groups.range(span.start as u32..span.end as u32) {
            let cells = usize::from(group) * TBL8_GROUP..(usize::from(group) + 1) * TBL8_GROUP;
            paint(&mut self.tbl8[cells.clone()], &mut self.tbl8_depth[cells], route);
        }
    }

    fn add_long(&mut self, route: Route) {
        let idx = route.prefix >> 8;
        let group = match self.groups.get(&idx) {
            Some(&group) => usize::from(group),
            None => {
                let group = self.tbl8.len() / TBL8_GROUP;
                // Seed the new group with the covering short route, if any.
                let at = idx as usize;
                self.tbl8.extend(std::iter::repeat_n(self.tbl24[at], TBL8_GROUP));
                self.tbl8_depth.extend(std::iter::repeat_n(self.tbl24_depth[at], TBL8_GROUP));
                self.tbl24[at] = EXT | group as u16;
                self.tbl24_depth[at] = EXT_DEPTH;
                self.groups.insert(idx, group as u16);
                group
            }
        };
        let first = group * TBL8_GROUP + (route.prefix & 0xff) as usize;
        let span = first..first + (1usize << (32 - route.depth));
        paint(&mut self.tbl8[span.clone()], &mut self.tbl8_depth[span], route);
    }

    /// Rewrites both levels from `self.rules`: tbl24 in one left-to-right
    /// pass over the sorted /24-and-shorter rules, then the `long` (/25+)
    /// routes in order, which numbers the tbl8 groups by first use. The
    /// table's allocations are reused, so no second table is ever live.
    fn build(&mut self, long: impl IntoIterator<Item = Route>) {
        // Prefixes of /24 or shorter are nested or disjoint, so sorted by
        // (first entry, depth) the ones covering the cursor form a stack.
        let mut short: Vec<(u32, u8, NextHop)> = self
            .rules
            .range(..(25, 0))
            .map(|(&(depth, prefix), &hop)| (prefix >> 8, depth, hop))
            .collect();
        short.sort_unstable();
        self.tbl24.clear();
        self.tbl24_depth.clear();
        self.tbl8.clear();
        self.tbl8_depth.clear();
        self.groups.clear();
        // (end, next hop, depth) of the open prefixes, innermost last.
        let mut open: Vec<(usize, NextHop, u8)> = Vec::new();
        for (first, depth, hop) in short {
            let first = first as usize;
            self.fill_to(first, &mut open);
            open.push((first + (1usize << (24 - depth)), hop, depth));
        }
        self.fill_to(TBL24_SIZE, &mut open);
        for route in long {
            self.add_long(route);
        }
    }

    /// Appends tbl24 entries up to index `to`, each taking the innermost
    /// open prefix that covers it.
    fn fill_to(&mut self, to: usize, open: &mut Vec<(usize, NextHop, u8)>) {
        while self.tbl24.len() < to {
            let at = self.tbl24.len();
            while open.last().is_some_and(|&(end, ..)| end <= at) {
                open.pop();
            }
            let (end, hop, depth) = open.last().copied().unwrap_or((to, INVALID, 0));
            let end = end.min(to);
            self.tbl24.resize(end, hop);
            self.tbl24_depth.resize(end, depth);
        }
    }

    /// Looks up the next hop for `ip`: one tbl24 access, plus one tbl8
    /// access for /25+ prefixes.
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        let entry = self.tbl24[(ip >> 8) as usize];
        if entry == INVALID {
            return None;
        }
        if entry & EXT == 0 {
            return Some(entry);
        }
        let group = (entry & !EXT) as usize;
        let t8 = self.tbl8[group * TBL8_GROUP + (ip & 0xff) as usize];
        if t8 == INVALID {
            None
        } else {
            Some(t8)
        }
    }

    /// Removes a route (by prefix/depth) and rebuilds the tables.
    /// Returns true if a rule was removed.
    pub fn delete(&mut self, prefix: u32, depth: u8) -> bool {
        if self.rules.remove(&(depth, prefix & Route::mask(depth))).is_none() {
            return false;
        }
        let long: Vec<Route> = self.rules().filter(|r| r.depth > 24).collect();
        self.build(long);
        true
    }
}

/// Writes `route` over every entry it is at least as deep as. Invalid
/// entries have depth 0 and tbl24 group pointers [`EXT_DEPTH`], so one
/// branch-free select per entry covers every case.
fn paint(hops: &mut [NextHop], depths: &mut [u8], route: Route) {
    for (hop, depth) in hops.iter_mut().zip(depths) {
        let take = *depth <= route.depth;
        *hop = if take { route.next_hop } else { *hop };
        *depth = if take { route.depth } else { *depth };
    }
}

/// Reference implementation: linear scan for the deepest matching rule.
/// Used by tests to validate the DIR-24-8 structure.
#[must_use]
pub fn linear_lookup(rules: &[Route], ip: u32) -> Option<NextHop> {
    rules
        .iter()
        .filter(|r| r.matches(ip))
        .max_by_key(|r| r.depth)
        .map(|r| r.next_hop)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn empty_table_matches_nothing() {
        let lpm = Lpm::new();
        assert!(lpm.is_empty());
        assert_eq!(lpm.lookup(0x01020304), None);
    }

    #[test]
    fn default_route_catches_all() {
        let mut lpm = Lpm::new();
        lpm.add(Route::new(0, 1, 7));
        assert_eq!(lpm.lookup(0x00000001), Some(7));
        assert_eq!(lpm.lookup(0x7fffffff), Some(7));
        assert_eq!(lpm.lookup(0x80000000), None, "only the 0/1 half");
    }

    #[test]
    fn longest_prefix_wins_across_levels() {
        let mut lpm = Lpm::new();
        lpm.add(Route::new(0x0a000000, 8, 1));
        lpm.add(Route::new(0x0a010000, 16, 2));
        lpm.add(Route::new(0x0a010200, 24, 3));
        lpm.add(Route::new(0x0a010280, 25, 4));
        lpm.add(Route::new(0x0a0102fe, 32, 5));
        assert_eq!(lpm.lookup(0x0a_33_44_55), Some(1));
        assert_eq!(lpm.lookup(0x0a_01_44_55), Some(2));
        assert_eq!(lpm.lookup(0x0a_01_02_10), Some(3));
        assert_eq!(lpm.lookup(0x0a_01_02_90), Some(4));
        assert_eq!(lpm.lookup(0x0a_01_02_fe), Some(5));
    }

    #[test]
    fn long_then_short_insertion_order() {
        // Insert a /26 before the covering /16: the /16 must fill the
        // group's uncovered entries, not clobber the /26.
        let mut lpm = Lpm::new();
        lpm.add(Route::new(0x0a010240, 26, 9));
        lpm.add(Route::new(0x0a010000, 16, 2));
        assert_eq!(lpm.lookup(0x0a010250), Some(9), "/26 survives");
        assert_eq!(lpm.lookup(0x0a010210), Some(2), "/16 covers the rest");
        assert_eq!(lpm.lookup(0x0a019999 & 0xffff00ff), Some(2));
    }

    #[test]
    fn delete_restores_shorter_cover() {
        let mut lpm = Lpm::new();
        lpm.add(Route::new(0x0a000000, 8, 1));
        lpm.add(Route::new(0x0a010000, 16, 2));
        assert_eq!(lpm.lookup(0x0a010101), Some(2));
        assert!(lpm.delete(0x0a010000, 16));
        assert_eq!(lpm.lookup(0x0a010101), Some(1), "falls back to /8");
        assert!(!lpm.delete(0x0a010000, 16), "already gone");
        assert_eq!(lpm.len(), 1);
    }

    #[test]
    fn paper_scale_16k_routes() {
        // §5.4: 16 000 routes. Generate deterministic pseudo-random
        // routes and validate against the linear reference on a sample.
        let mut rng = StdRng::seed_from_u64(2025);
        let mut lpm = Lpm::new();
        let mut rules = Vec::new();
        for i in 0..16_000u32 {
            let depth = rng.gen_range(8..=28);
            let prefix: u32 = rng.gen();
            let route = Route::new(prefix, depth, ((i % 16) + 1) as u16);
            lpm.add(route);
            rules.retain(|r: &Route| !(r.prefix == route.prefix && r.depth == route.depth));
            rules.push(route);
        }
        assert_eq!(lpm.len(), rules.len());
        for _ in 0..20_000 {
            let ip: u32 = rng.gen();
            assert_eq!(lpm.lookup(ip), linear_lookup(&rules, ip), "ip={ip:#x}");
        }
    }

    #[test]
    fn one_pass_build_equals_add_loop_on_paper_tables() {
        for seed in [1, 2, 3] {
            let routes = crate::traffic::paper_route_table(seed);
            assert_same(&Lpm::from_routes(&routes), &add_loop(&routes));
        }
    }

    /// The table built by adding `routes` one at a time.
    pub(super) fn add_loop(routes: &[Route]) -> Lpm {
        let mut lpm = Lpm::new();
        for &r in routes {
            lpm.add(r);
        }
        lpm
    }

    fn same_array<T: PartialEq + std::fmt::Debug>(name: &str, got: &[T], want: &[T]) {
        assert_eq!(got.len(), want.len(), "{name} length");
        if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
            panic!("{name}[{i:#x}]: got {:?}, want {:?}", got[i], want[i]);
        }
    }

    /// Asserts the two tables are equal array for array.
    pub(super) fn assert_same(got: &Lpm, want: &Lpm) {
        same_array("tbl24", &got.tbl24, &want.tbl24);
        same_array("tbl24_depth", &got.tbl24_depth, &want.tbl24_depth);
        same_array("tbl8", &got.tbl8, &want.tbl8);
        same_array("tbl8_depth", &got.tbl8_depth, &want.tbl8_depth);
        assert_eq!(got.rules, want.rules, "rules");
        assert_eq!(got.groups, want.groups, "tbl24 → group index");
    }

    /// `lpm` with its tbl8 groups renumbered in tbl24 order, so tables
    /// that installed their /25+ routes in different orders compare
    /// equal when they hold the same entries.
    pub(super) fn canonical(lpm: &Lpm) -> Lpm {
        let mut out = lpm.clone();
        out.tbl8.clear();
        out.tbl8_depth.clear();
        for (new, (&idx, group)) in out.groups.iter_mut().enumerate() {
            let old = usize::from(*group) * TBL8_GROUP..(usize::from(*group) + 1) * TBL8_GROUP;
            out.tbl8.extend_from_slice(&lpm.tbl8[old.clone()]);
            out.tbl8_depth.extend_from_slice(&lpm.tbl8_depth[old]);
            *group = new as u16;
            out.tbl24[idx as usize] = EXT | new as u16;
        }
        out
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::tests::{add_loop, assert_same, canonical};
    use super::*;

    fn route_strategy() -> impl Strategy<Value = Route> {
        (any::<u32>(), 1u8..=32, 0u16..100)
            .prop_map(|(prefix, depth, nh)| Route::new(prefix, depth, nh))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// DIR-24-8 lookup equals the linear-scan reference for arbitrary
        /// rule sets and addresses.
        #[test]
        fn matches_linear_reference(
            routes in proptest::collection::vec(route_strategy(), 1..40),
            probes in proptest::collection::vec(any::<u32>(), 1..200),
        ) {
            let mut lpm = Lpm::new();
            let mut rules: Vec<Route> = Vec::new();
            for r in routes {
                lpm.add(r);
                rules.retain(|x| !(x.prefix == r.prefix && x.depth == r.depth));
                rules.push(r);
            }
            for ip in probes {
                prop_assert_eq!(lpm.lookup(ip), linear_lookup(&rules, ip), "ip={:#x}", ip);
            }
            // Probe rule boundaries too (first/last address of each prefix).
            for r in &rules {
                let lo = r.prefix;
                let hi = r.prefix | !(if r.depth == 0 { 0 } else { u32::MAX << (32 - r.depth as u32) });
                prop_assert_eq!(lpm.lookup(lo), linear_lookup(&rules, lo));
                prop_assert_eq!(lpm.lookup(hi), linear_lookup(&rules, hi));
            }
        }

        /// The one-pass build equals the `add` loop array for array.
        #[test]
        fn one_pass_build_equals_add_loop(routes in clustered_routes()) {
            assert_same(&Lpm::from_routes(&routes), &add_loop(&routes));
        }

        /// Deleting a rule leaves the table that adding the remaining
        /// routes builds (tbl8 groups may be numbered differently), and
        /// the rebuild equals the one-pass build of the remaining rules.
        #[test]
        fn delete_equals_building_without_the_rule(
            routes in clustered_routes(),
            pick in any::<usize>(),
        ) {
            let victim = routes[pick % routes.len()];
            let mut lpm = Lpm::from_routes(&routes);
            prop_assert!(lpm.delete(victim.prefix, victim.depth));
            let remaining: Vec<Route> = routes
                .iter()
                .filter(|r| (r.prefix, r.depth) != (victim.prefix, victim.depth))
                .copied()
                .collect();
            assert_same(&canonical(&lpm), &canonical(&add_loop(&remaining)));
            assert_same(&lpm, &Lpm::from_routes(&lpm.rules().collect::<Vec<_>>()));
        }
    }

    /// Route sets built around four /24s: short routes (/4–/24) cover
    /// them, several /25–/32 routes share each one, routes arrive in any
    /// depth order, and a tail re-adds earlier `(prefix, depth)` pairs
    /// with new next hops.
    fn clustered_routes() -> impl Strategy<Value = Vec<Route>> {
        (
            proptest::collection::vec(any::<u32>(), 4..5),
            proptest::collection::vec((0usize..4, any::<u8>(), 4u8..=32, 0u16..8), 1..40),
            proptest::collection::vec((any::<usize>(), 8u16..16), 0..8),
        )
            .prop_map(|(bases, routes, repeats)| {
                let mut out: Vec<Route> = routes
                    .into_iter()
                    .map(|(b, low, depth, hop)| Route::new(bases[b] | u32::from(low), depth, hop))
                    .collect();
                for (i, hop) in repeats {
                    let r = out[i % out.len()];
                    out.push(Route::new(r.prefix, r.depth, hop));
                }
                out
            })
    }
}
