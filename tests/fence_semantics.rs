//! Integration: network-fence semantics (§V) — merge/multicast mechanics
//! composed into multi-router sweeps, the ordering (memory-fence)
//! guarantee, and barrier scaling.

use anton3::machine::{barrier, machine::NetworkMachine};
use anton3::model::topology::{Dim, Direction, NodeId};
use anton3::model::units::Ps;
use anton3::model::MachineConfig;
use anton3::net::fence::{FenceAllocator, RouterFence};
use anton3::net::packet::PacketKind;

/// Compose RouterFence instances into the Figure 10b scenario: a chain of
/// three routers where the middle router's input port expects merged
/// fences from two upstream paths and multicasts to two downstream ports.
#[test]
fn fence_sweeps_a_router_chain_exactly_once() {
    // Upstream router: two input ports (two GC columns), each expecting
    // one fence, both multicast to output 0 and output 1 (two paths).
    let mut upstream = RouterFence::new(2, 1);
    upstream.configure(0, 0, 1, 0b11);
    upstream.configure(1, 0, 1, 0b11);
    // Middle router: one input port fed by the upstream's two output
    // paths, expecting two packets, forwarding to two destinations.
    let mut middle = RouterFence::new(1, 1);
    middle.configure(0, 0, 2, 0b11);
    // Destination routers: expect one merged fence each.
    let mut dest = RouterFence::new(1, 1);
    dest.configure(0, 0, 1, 0b1);

    // Two GCs emit fence packets into the upstream router.
    let mut middle_arrivals = 0;
    for port in 0..2 {
        if let Some(mask) = upstream.receive(port, 0) {
            // The merged packet leaves on every masked output; both
            // reach the middle router's input port (two paths).
            middle_arrivals += mask.count_ones();
        }
    }
    assert_eq!(middle_arrivals, 4, "each GC merge multicasts on two paths");
    // Only the *first* two arrivals complete the middle merge; the
    // counter then resets and the next two complete a second fence —
    // distinct fences must not be conflated, so feed exactly one fence's
    // worth (the expected count) per wave.
    let mut fired = 0;
    for _ in 0..2 {
        if middle.receive(0, 0).is_some() {
            fired += 1;
        }
    }
    assert_eq!(
        fired, 1,
        "one merged fence leaves the middle router per wave"
    );
    assert_eq!(
        dest.receive(0, 0),
        Some(0b1),
        "destination sees exactly one fence"
    );
}

#[test]
fn fence_never_overtakes_posted_writes() {
    // The memory-fence property of §V-E: a fence sent after N counted
    // writes on a link arrives after all of them, for any N.
    let m = NetworkMachine::new(MachineConfig::torus([2, 2, 2]));
    for n in [0usize, 1, 7, 64, 300] {
        let mut machine = m.clone();
        let (last_data, fence) =
            barrier::fence_flushes_link(&mut machine, NodeId(2), Direction::new(Dim::Y, false), n);
        if n > 0 {
            assert!(
                fence > last_data,
                "n={n}: fence {fence} vs data {last_data}"
            );
        }
    }
    // Keep the original machine unused-warning-free.
    let _ = m.total_stats();
}

#[test]
fn barrier_latency_scales_linearly_and_matches_paper() {
    let cfg = MachineConfig::torus([4, 4, 8]);
    let rows = barrier::fig11(&cfg);
    // Paper: 51.5 ns intra-node, ~504 ns global, 51.8 ns/hop.
    assert!(
        (47.0..58.0).contains(&rows[0].latency_ns),
        "0-hop {}",
        rows[0].latency_ns
    );
    assert!(
        (450.0..540.0).contains(&rows[8].latency_ns),
        "8-hop {}",
        rows[8].latency_ns
    );
    let increments: Vec<f64> = rows
        .windows(2)
        .skip(1)
        .map(|w| w[1].latency_ns - w[0].latency_ns)
        .collect();
    for inc in &increments {
        assert!((47.0..56.0).contains(inc), "per-hop increment {inc}");
    }
}

#[test]
fn smaller_machines_have_cheaper_global_barriers() {
    let small = MachineConfig::torus([2, 2, 2]);
    let large = MachineConfig::torus([4, 4, 8]);
    let t_small = barrier::barrier_latency(&small, small.torus.diameter());
    let t_large = barrier::barrier_latency(&large, large.torus.diameter());
    assert!(t_small < t_large);
    assert!(
        t_small > Ps::from_ns(100.0),
        "2x2x2 barrier still crosses channels"
    );
}

#[test]
fn hop_limited_fences_price_proportionally() {
    // fence(pattern, k): limiting the synchronization domain pays only
    // for k hops (§V-A) — the cost of a 3-hop fence on a big machine
    // equals the cost of a 3-hop fence on any machine.
    let a = MachineConfig::torus([4, 4, 8]);
    let b = MachineConfig::torus([8, 8, 8]);
    assert_eq!(
        barrier::barrier_latency(&a, 3),
        barrier::barrier_latency(&b, 3),
        "hop-limited fences are machine-size independent"
    );
}

#[test]
fn fourteen_fences_pipeline_through_the_allocator() {
    let mut alloc = FenceAllocator::new();
    // Software overlaps fences: acquire 14, retire 5, acquire 5 more.
    let mut slots = Vec::new();
    for _ in 0..14 {
        slots.push(alloc.try_acquire().expect("slot"));
    }
    assert!(alloc.try_acquire().is_none());
    for s in slots.drain(..5) {
        alloc.release(s);
    }
    for _ in 0..5 {
        assert!(alloc.try_acquire().is_some());
    }
    assert_eq!(alloc.active(), 14);
    assert_eq!(alloc.peak(), 14);
}

#[test]
fn end_of_step_markers_share_fence_ordering() {
    // End-of-step packets (which advance pcache epochs) ride the same
    // FIFO serializers, so an epoch can never advance ahead of the
    // positions sent in its step.
    let mut m = NetworkMachine::new(MachineConfig::torus([2, 2, 2]));
    let link = m.link_mut(NodeId(0), Direction::new(Dim::Z, true), 1);
    let t_pos = link
        .send_position(
            Ps::ZERO,
            anton3::compress::pcache::ParticleKey(9),
            [5, 5, 5],
        )
        .0;
    let t_eos = link.send_marker(Ps::ZERO, PacketKind::EndOfStep);
    assert!(t_eos.depart >= t_pos.depart + (t_pos.arrive - t_pos.depart) - link.crossing_fixed());
    assert!(t_eos.arrive > t_pos.arrive - link.crossing_fixed());
}
