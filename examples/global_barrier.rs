//! Network-fence barriers (paper §V): sweep the fence hop budget on a
//! 128-node machine and watch the barrier latency scale linearly with the
//! synchronization domain — ~52 ns within a node, ~0.5 µs machine-wide.
//!
//! Run with: `cargo run --release --example global_barrier`

use anton3::machine::barrier;
use anton3::model::MachineConfig;
use anton3::net::fence::{FenceAllocator, RouterFence};

fn main() {
    let cfg = MachineConfig::torus([4, 4, 8]);
    println!(
        "GC-to-GC fence barrier latency on a {} machine:\n",
        cfg.torus
    );
    for hops in 0..=cfg.torus.diameter() {
        let t = barrier::barrier_latency(&cfg, hops);
        let label = match hops {
            0 => " (intra-node)",
            h if h == cfg.torus.diameter() => " (global barrier)",
            _ => "",
        };
        println!("  fence(GC_to_GC, {hops}) -> {:>7.1} ns{label}", t.as_ns());
    }

    // The in-network merge mechanics of Figure 10: a router port that
    // expects two upstream fence packets and multicasts the merged fence
    // to two output ports.
    println!("\nFigure 10 merge mechanics:");
    let mut rf = RouterFence::new(4, 1);
    rf.configure(0, 0, 2, 0b1010);
    println!(
        "  first fence packet at port 0: fires = {:?}",
        rf.receive(0, 0)
    );
    println!(
        "  second fence packet at port 0: fires = {:?} (multicast mask)",
        rf.receive(0, 0)
    );

    // Concurrent-fence flow control (§V-D): at most 14 in flight.
    let mut alloc = FenceAllocator::new();
    let slots: Vec<_> = std::iter::from_fn(|| alloc.try_acquire()).collect();
    println!(
        "\nconcurrent fences acquired before the adapter stalls: {}",
        slots.len()
    );
}
