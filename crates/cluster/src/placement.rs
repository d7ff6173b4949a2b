//! Routing policies: which device gets the next task.
//!
//! A policy sees only the fleet manager's *host-side* view — liveness,
//! `known_free` TaskTable entries (the §4.2.2 lazily-updated CPU count),
//! and outstanding cluster tasks — never device-internal state, matching
//! what a real fleet router could observe without extra PCIe traffic.
//!
//! All policies are deterministic: round-robin and least-outstanding are
//! pure functions of the view sequence; power-of-two-choices draws from
//! a seeded [`SmallRng`], so the same seed replays the same sampling
//! sequence. None of them ever places on a dead device.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The routing policy of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Rotate over live devices regardless of load. The baseline: cheap,
    /// fair in count, oblivious to skew.
    RoundRobin,
    /// Always the live device with the fewest outstanding cluster tasks
    /// (ties to the lowest index). Global knowledge, herd-free because
    /// this simulation routes from one sequential front-end.
    LeastOutstanding,
    /// Sample two distinct live devices uniformly, take the less loaded
    /// (the classic balls-into-bins result: near-best balance at O(1)
    /// cost, no global scan).
    PowerOfTwo,
    /// Prefer the tenant's home devices (where its state lives); fall
    /// back to least-outstanding across the fleet when no home is live
    /// and has room. Off-home placements pay the staging transfer.
    TenantAffinity,
}

/// What a policy sees of one device at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceView {
    /// Whether the device is serving (killed devices are never chosen).
    pub alive: bool,
    /// TaskTable entries free in the fleet manager's current view.
    pub known_free: u32,
    /// Cluster tasks in flight on the device.
    pub outstanding: u32,
}

/// A stateful placement engine: policy + rotation cursor + sampling RNG.
#[derive(Debug, Clone)]
pub struct Placer {
    policy: Placement,
    rng: SmallRng,
    next_rr: usize,
    spread: usize,
}

impl Placer {
    /// A placer for `policy`. `affinity_spread` is the home-set width
    /// used both by [`Placement::TenantAffinity`] routing and by every
    /// policy's off-home accounting (clamped to ≥ 1).
    pub fn new(policy: Placement, seed: u64, affinity_spread: u32) -> Self {
        Placer {
            policy,
            rng: SmallRng::seed_from_u64(seed ^ 0xc1a5_7e2d_0f1e_e700),
            next_rr: 0,
            spread: affinity_spread.max(1) as usize,
        }
    }

    /// Whether device `dev` belongs to `tenant`'s home set in a fleet of
    /// `n` devices: the `spread` consecutive devices starting at
    /// `tenant % n` (wrapping).
    pub fn is_home(&self, tenant: u32, dev: usize, n: usize) -> bool {
        if n == 0 {
            return false;
        }
        let base = tenant as usize % n;
        (dev + n - base) % n < self.spread.min(n)
    }

    /// Chooses a live device for `tenant`'s next task, or `None` if no
    /// device is alive. The choice may be full (`known_free == 0`) —
    /// the caller handles spawn backpressure; only liveness is a hard
    /// constraint here.
    pub fn place(&mut self, tenant: u32, views: &[DeviceView]) -> Option<usize> {
        match self.policy {
            Placement::RoundRobin => self.place_round_robin(views),
            Placement::LeastOutstanding => least_outstanding(views, |_| true),
            Placement::PowerOfTwo => self.place_power_of_two(views),
            Placement::TenantAffinity => self.place_affinity(tenant, views),
        }
    }

    fn place_round_robin(&mut self, views: &[DeviceView]) -> Option<usize> {
        let n = views.len();
        for k in 0..n {
            let d = (self.next_rr + k) % n;
            if views[d].alive {
                self.next_rr = (d + 1) % n;
                return Some(d);
            }
        }
        None
    }

    /// Draws two distinct ranks among the live devices and maps each to
    /// its device by scanning `views`, so a placement allocates nothing.
    fn place_power_of_two(&mut self, views: &[DeviceView]) -> Option<usize> {
        let alive = || (0..views.len()).filter(|&d| views[d].alive);
        match alive().count() {
            0 => None,
            1 => alive().next(),
            len => {
                let i = self.rng.gen_range(0..len);
                let mut j = self.rng.gen_range(0..len - 1);
                if j >= i {
                    j += 1;
                }
                let nth = |rank| alive().nth(rank).expect("rank below the live count");
                let (a, b) = (nth(i), nth(j));
                let pick = match views[a].outstanding.cmp(&views[b].outstanding) {
                    std::cmp::Ordering::Less => a,
                    std::cmp::Ordering::Greater => b,
                    std::cmp::Ordering::Equal => a.min(b),
                };
                Some(pick)
            }
        }
    }

    fn place_affinity(&mut self, tenant: u32, views: &[DeviceView]) -> Option<usize> {
        let n = views.len();
        let home = least_outstanding(views, |d| {
            self.is_home(tenant, d, n) && views[d].known_free > 0
        });
        home.or_else(|| least_outstanding(views, |_| true))
    }
}

/// Lowest-index live device minimizing `outstanding`, among those
/// passing `keep`.
fn least_outstanding(views: &[DeviceView], keep: impl Fn(usize) -> bool) -> Option<usize> {
    (0..views.len())
        .filter(|&d| views[d].alive && keep(d))
        .min_by_key(|&d| (views[d].outstanding, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(alive: bool, known_free: u32, outstanding: u32) -> DeviceView {
        DeviceView {
            alive,
            known_free,
            outstanding,
        }
    }

    #[test]
    fn round_robin_skips_dead_devices() {
        let mut p = Placer::new(Placement::RoundRobin, 1, 1);
        let views = [
            view(true, 4, 0),
            view(false, 4, 0),
            view(true, 4, 0),
            view(true, 4, 0),
        ];
        let seq: Vec<_> = (0..6).map(|_| p.place(0, &views).unwrap()).collect();
        assert_eq!(seq, [0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn least_outstanding_ties_to_lowest_index() {
        let mut p = Placer::new(Placement::LeastOutstanding, 1, 1);
        let views = [view(true, 4, 2), view(true, 4, 1), view(true, 4, 1)];
        assert_eq!(p.place(0, &views), Some(1));
    }

    #[test]
    fn power_of_two_prefers_less_loaded_of_pair() {
        let mut p = Placer::new(Placement::PowerOfTwo, 42, 1);
        let views = [view(true, 4, 100), view(true, 4, 0), view(true, 4, 100)];
        // Whatever pair it samples, device 1 wins any comparison that
        // includes it; over many draws it must be chosen at least once
        // and the heavy devices can only appear via heavy-vs-heavy pairs.
        let picks: Vec<_> = (0..32).map(|_| p.place(0, &views).unwrap()).collect();
        assert!(picks.contains(&1));
    }

    /// Power-of-two as it was: the live indices collected per placement.
    fn power_of_two_by_list(rng: &mut SmallRng, views: &[DeviceView]) -> Option<usize> {
        let alive: Vec<usize> = (0..views.len()).filter(|&d| views[d].alive).collect();
        match alive.len() {
            0 => None,
            1 => Some(alive[0]),
            len => {
                let i = rng.gen_range(0..len);
                let mut j = rng.gen_range(0..len - 1);
                if j >= i {
                    j += 1;
                }
                let (a, b) = (alive[i], alive[j]);
                Some(match views[a].outstanding.cmp(&views[b].outstanding) {
                    std::cmp::Ordering::Less => a,
                    std::cmp::Ordering::Greater => b,
                    std::cmp::Ordering::Equal => a.min(b),
                })
            }
        }
    }

    #[test]
    fn power_of_two_picks_as_the_collected_list_did() {
        let mut draw = SmallRng::seed_from_u64(5);
        for seed in 0..8 {
            let mut p = Placer::new(Placement::PowerOfTwo, seed, 1);
            let mut rng = Placer::new(Placement::PowerOfTwo, seed, 1).rng;
            for _ in 0..500 {
                let n = draw.gen_range(0..7);
                let views: Vec<_> = (0..n)
                    .map(|_| view(draw.gen_bool(0.7), 4, draw.gen_range(0..4)))
                    .collect();
                assert_eq!(p.place(0, &views), power_of_two_by_list(&mut rng, &views));
            }
        }
    }

    #[test]
    fn affinity_prefers_home_then_falls_back() {
        let mut p = Placer::new(Placement::TenantAffinity, 1, 2);
        // Tenant 1 in a 4-fleet with spread 2: homes are devices 1, 2.
        let views = [
            view(true, 4, 0),
            view(true, 4, 9),
            view(true, 4, 3),
            view(true, 4, 0),
        ];
        assert_eq!(p.place(1, &views), Some(2), "less-loaded home wins");
        // Homes full: fall back to fleet-wide least-outstanding.
        let full = [
            view(true, 4, 0),
            view(true, 0, 9),
            view(true, 0, 3),
            view(true, 4, 5),
        ];
        assert_eq!(p.place(1, &full), Some(0));
        // Homes dead: same fallback.
        let dead = [
            view(true, 4, 7),
            view(false, 4, 0),
            view(false, 4, 0),
            view(true, 4, 5),
        ];
        assert_eq!(p.place(1, &dead), Some(3));
    }

    #[test]
    fn all_dead_places_nowhere() {
        for policy in [
            Placement::RoundRobin,
            Placement::LeastOutstanding,
            Placement::PowerOfTwo,
            Placement::TenantAffinity,
        ] {
            let mut p = Placer::new(policy, 7, 1);
            let views = [view(false, 4, 0), view(false, 4, 0)];
            assert_eq!(p.place(0, &views), None, "{policy:?}");
        }
    }

    #[test]
    fn home_set_wraps() {
        let p = Placer::new(Placement::TenantAffinity, 1, 2);
        // Tenant 3 in a 4-fleet, spread 2: homes are 3 and 0.
        assert!(p.is_home(3, 3, 4));
        assert!(p.is_home(3, 0, 4));
        assert!(!p.is_home(3, 1, 4));
        assert!(!p.is_home(3, 2, 4));
    }
}
