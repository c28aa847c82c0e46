//! Open-loop traffic generation with exponential inter-arrival times
//! (§5.4: "we modified the packet generator to use an exponential
//! distribution for inter-packet arrival times to more accurately model
//! the burstiness of real network traffic").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use xui_des::dist::{PoissonProcess, Sample};

use crate::lpm::Route;
use crate::packet::Packet;

/// Generates a packet stream for one NIC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficGen {
    /// `None` for a zero-rate (silent) generator.
    process: Option<PoissonProcess>,
    dst_pool: Vec<u32>,
    next_id: u64,
}

impl TrafficGen {
    /// Creates a generator with the given packet rate (packets/cycle) and
    /// a pool of routable destination addresses drawn from `routes`.
    #[must_use]
    pub fn new(rate: f64, routes: &[Route], seed: u64, pool_size: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dst_pool = if routes.is_empty() {
            vec![0x0a00_0001]
        } else {
            (0..pool_size.max(1))
                .map(|_| {
                    let r = routes[rng.gen_range(0..routes.len())];
                    // An address inside the prefix.
                    let host_bits = 32 - u32::from(r.depth);
                    let host: u32 = if host_bits == 0 {
                        0
                    } else {
                        rng.gen_range(0..(1u64 << host_bits)) as u32
                    };
                    r.prefix | host
                })
                .collect()
        };
        Self {
            process: (rate > 0.0).then(|| PoissonProcess::with_rate(rate)),
            dst_pool,
            next_id: 0,
        }
    }

    /// Draws the next packet. A zero-rate generator returns a packet
    /// arriving at `u64::MAX` (never).
    pub fn next_packet<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Packet {
        let arrived_at = match self.process.as_mut() {
            Some(p) => p.next_arrival(rng),
            None => u64::MAX,
        };
        let dst_ip = self.dst_pool[rng.gen_range(0..self.dst_pool.len())];
        let id = self.next_id;
        self.next_id += 1;
        Packet {
            id,
            dst_ip,
            arrived_at,
        }
    }

    /// Pre-generates all packets arriving before `horizon`.
    pub fn generate_until<R: Rng + ?Sized>(&mut self, rng: &mut R, horizon: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        loop {
            let p = self.next_packet(rng);
            if p.arrived_at >= horizon {
                break;
            }
            out.push(p);
        }
        out
    }
}

/// Builds the paper's 16 000-entry routing table deterministically.
#[must_use]
pub fn paper_route_table(seed: u64) -> Vec<Route> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut routes = Vec::with_capacity(16_000);
    for i in 0..16_000u32 {
        let depth = rng.gen_range(8..=28);
        let prefix: u32 = rng.gen();
        routes.push(Route::new(prefix, depth, ((i % 8) + 1) as u16));
    }
    routes
}

/// A `Sample` wrapper for fixed per-packet processing cost plus optional
/// jitter (kept for extension experiments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessingCost {
    /// Base per-packet cycles.
    pub base: f64,
}

impl Sample for ProcessingCost {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::{linear_lookup, Lpm};

    #[test]
    fn generated_packets_are_monotonic_and_routable() {
        let routes = paper_route_table(7);
        let lpm = Lpm::from_routes(&routes);
        let mut gen = TrafficGen::new(0.001, &routes, 3, 256);
        let mut rng = StdRng::seed_from_u64(9);
        let mut last = 0;
        for _ in 0..2_000 {
            let p = gen.next_packet(&mut rng);
            assert!(p.arrived_at >= last);
            last = p.arrived_at;
            assert!(
                lpm.lookup(p.dst_ip).is_some(),
                "generated destinations are routable: {:#x}",
                p.dst_ip
            );
            assert_eq!(lpm.lookup(p.dst_ip), linear_lookup(&routes, p.dst_ip));
        }
    }

    #[test]
    fn rate_is_respected() {
        let routes = paper_route_table(7);
        let mut gen = TrafficGen::new(1.0 / 500.0, &routes, 3, 64);
        let mut rng = StdRng::seed_from_u64(10);
        let packets = gen.generate_until(&mut rng, 5_000_000);
        let rate = packets.len() as f64 / 5_000_000.0;
        assert!((rate - 1.0 / 500.0).abs() / (1.0 / 500.0) < 0.1, "rate={rate}");
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let routes = paper_route_table(7);
        let mut gen = TrafficGen::new(0.01, &routes, 3, 64);
        let mut rng = StdRng::seed_from_u64(11);
        let packets = gen.generate_until(&mut rng, 100_000);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
    }
}
