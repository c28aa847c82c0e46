//! A layer-3 router on the DPDK-like substrate (the Figure 8 scenario):
//! build a 16 000-route DIR-24-8 LPM table, route a few addresses by
//! hand, then compare busy polling against xUI device interrupts at
//! 40% load.
//!
//! Run with: `cargo run --release --example l3fwd_router`

use xui::net::l3fwd::{run_l3fwd, IoMode, L3fwdConfig};
use xui::net::lpm::{Lpm, Route};
use xui::net::traffic::paper_route_table;

fn main() {
    // --- The routing table itself is a real data structure. ----------
    let mut lpm = Lpm::new();
    lpm.add(Route::new(0x0a00_0000, 8, 1)); // 10.0.0.0/8      → port 1
    lpm.add(Route::new(0x0a01_0000, 16, 2)); // 10.1.0.0/16    → port 2
    lpm.add(Route::new(0x0a01_0280, 25, 3)); // 10.1.2.128/25  → port 3
    for (ip, label) in [
        (0x0a22_3344u32, "10.34.51.68"),
        (0x0a01_4455, "10.1.68.85"),
        (0x0a01_02f0, "10.1.2.240"),
    ] {
        println!("route {label:<12} → port {:?}", lpm.lookup(ip));
    }

    // --- Now at the paper's scale. ------------------------------------
    let routes = paper_route_table(42);
    let big = Lpm::from_routes(&routes);
    println!("\ninstalled {} routes (DIR-24-8, one memory access for /≤24)", big.len());

    // --- Polling vs xUI interrupts at 40% load, one NIC. --------------
    println!("\nl3fwd @40% load, 1 NIC, 20 ms simulated:");
    for (mode, name) in [
        (IoMode::Polling, "busy polling  "),
        (IoMode::XuiInterrupt, "xUI interrupts"),
    ] {
        let r = run_l3fwd(&L3fwdConfig::paper(1, 0.4, mode));
        println!(
            "  {name}: {:>7.2} Mpps | p95 latency {:>5} cycles | free cycles {:>5.1}% \
             | drops {}",
            r.throughput_pps / 1e6,
            r.latency.p95,
            r.free_fraction * 100.0,
            r.drops
        );
    }
    println!(
        "\nSame throughput and latency — but the interrupt-driven router returns \
         ~45% of the core\nto other work, which polling burns by definition."
    );
}
